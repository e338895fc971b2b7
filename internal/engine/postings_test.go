package engine

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dbabandits/internal/catalog"
	"dbabandits/internal/query"
	"dbabandits/internal/storage"
)

// Property: postings chain exactly the build ids carrying each key, in
// ascending id order, on both the direct head index (narrow key range)
// and the map path (keys spread over a wide range).
func TestQuickPostingsMatchBruteForce(t *testing.T) {
	var pb postings // reused across cases, as Execute's scratch is
	dense, sparse := 0, 0
	f := func(seed int64, wide bool) bool {
		rng := rand.New(rand.NewSource(seed))
		col := make([]int64, 1+rng.Intn(300))
		for i := range col {
			col[i] = int64(rng.Intn(40)) - 20
			if wide {
				col[i] *= 1 << 40
			}
		}
		var ids []int32
		for r := range col {
			if rng.Intn(3) > 0 {
				ids = append(ids, int32(r))
			}
		}
		pb.build(col, ids, rng.Intn(50))
		if pb.dense {
			dense++
		} else {
			sparse++
		}
		for _, v := range append(col, 21, -21, 1<<41, -(1 << 41)) {
			var want []int32
			for _, r := range ids {
				if col[r] == v {
					want = append(want, r)
				}
			}
			var got []int32
			for j := pb.first(v); j != 0; j = pb.next[j-1] {
				got = append(got, pb.ids[j-1])
			}
			if len(want) != len(got) || !slices.Equal(want, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if dense == 0 || sparse == 0 {
		t.Fatalf("only one path exercised: %d direct, %d map", dense, sparse)
	}
}

// TestExecuteSamplesEveryKthMatch pins the match-order contract behind
// tuple sampling: when a join step yields more than maxTuples matches,
// Execute keeps every k-th match of the full result taken in (outer
// tuple, ascending inner row) order. Every row of b matches every row of
// a, so the first step overflows; which b rows survive decides how many
// tuples then join the few selected rows of c, so the final cardinality
// differs under a reversed match order or a shifted stride.
func TestExecuteSamplesEveryKthMatch(t *testing.T) {
	const aRows, bRows = 600, 500
	type column struct {
		name string
		val  func(r int) int64
	}
	table := func(name string, rows int, cols ...column) *storage.Table {
		tbl := &storage.Table{Meta: &catalog.Table{Name: name, RowCount: int64(rows)}, StoredRows: rows, Mult: 1}
		for _, c := range cols {
			tbl.Meta.Columns = append(tbl.Meta.Columns, catalog.Column{Name: c.name, Kind: catalog.KindInt})
			vals := make([]int64, rows)
			for r := range vals {
				vals[r] = c.val(r)
			}
			tbl.Cols = append(tbl.Cols, vals)
		}
		return tbl
	}
	zero := column{"k", func(int) int64 { return 0 }}
	db := &storage.Database{Tables: map[string]*storage.Table{
		"a": table("a", aRows, zero),
		"b": table("b", bRows, zero, column{"c", func(r int) int64 { return int64(r) }}),
		"c": table("c", bRows, column{"c", func(r int) int64 { return int64(r) }}),
	}}
	q := &query.Query{
		Tables:  []string{"a", "b", "c"},
		Filters: []query.Predicate{{Table: "c", Column: "c", Op: query.OpLt, Hi: 7}},
	}
	hash := func(outer, outerCol, inner, innerCol string) JoinStep {
		return JoinStep{OuterTable: outer, OuterColumn: outerCol, InnerTable: inner, InnerColumn: innerCol,
			Inner: Access{Table: inner, Kind: AccessSeqScan}, Algo: JoinHash}
	}
	p := &Plan{Query: q, Driver: Access{Table: "a", Kind: AccessSeqScan},
		Steps: []JoinStep{hash("a", "k", "b", "k"), hash("b", "c", "c", "c")}}

	k := (aRows*bRows + maxTuples - 1) / maxTuples
	if k < 2 {
		t.Fatalf("fixture does not overflow maxTuples (k=%d)", k)
	}
	kept := 0
	for m := 0; m < aRows*bRows; m += k {
		if m%bRows < 7 {
			kept++
		}
	}
	st, err := Execute(db, p, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(kept) * float64(k); st.OutRows != want {
		t.Fatalf("OutRows = %v, want %v (every %d-th match kept)", st.OutRows, want, k)
	}
}
