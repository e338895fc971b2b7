package engine_test

import (
	"math/rand"
	"reflect"
	"testing"

	"dbabandits/internal/catalog"
	"dbabandits/internal/datagen"
	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/optimizer"
	"dbabandits/internal/query"
	"dbabandits/internal/storage"
	"dbabandits/internal/workload"
)

// referenceExecute is the brute-force oracle for engine.Execute: every
// selection is a full pass over the stored rows and every join a nested
// loop over the running tuples and the inner table's stored rows, with no
// hashing and no sampling. Costs are charged from the counts it finds
// through the same CostModel formulas. ok is false when an intermediate
// result exceeds engine.MaxTuples, where Execute samples and the oracle
// does not apply.
func referenceExecute(db *storage.Database, p *engine.Plan, cm *engine.CostModel) (st *engine.ExecStats, ok bool) {
	q := p.Query
	st = &engine.ExecStats{
		TableScanSec:   map[string]float64{},
		IndexAccessSec: map[string]engine.IndexAccess{},
	}
	for _, t := range q.Tables {
		st.TableScanSec[t] = cm.TableScanSec(db.MustTable(t).Meta, len(q.FiltersOn(t)))
	}

	driver := db.MustTable(p.Driver.Table)
	var tuples [][]int32
	for r := 0; r < driver.StoredRows; r++ {
		if refMatches(driver, q.Filters, r) {
			tuples = append(tuples, []int32{int32(r)})
		}
	}
	sec := refAccessSec(driver, p.Driver, q, cm)
	st.TotalSec += sec
	if ix := p.Driver.Index; ix != nil {
		st.IndexAccessSec[ix.ID()] = engine.IndexAccess{Table: ix.Table, Sec: sec}
	}

	slot := map[string]int{p.Driver.Table: 0}
	logicalFactor := driver.Mult
	for _, step := range p.Steps {
		inner := db.MustTable(step.InnerTable)
		outerCol := db.MustTable(step.OuterTable).MustColumn(step.OuterColumn)
		innerCol := inner.MustColumn(step.InnerColumn)
		innerMatched := 0
		for r := 0; r < inner.StoredRows; r++ {
			if refMatches(inner, q.Filters, r) {
				innerMatched++
			}
		}
		var out [][]int32
		for _, tup := range tuples {
			v := outerCol[tup[slot[step.OuterTable]]]
			for r := 0; r < inner.StoredRows; r++ {
				if innerCol[r] == v && refMatches(inner, q.Filters, r) {
					out = append(out, append(append(make([]int32, 0, len(tup)+1), tup...), int32(r)))
				}
			}
			if len(out) > engine.MaxTuples {
				return nil, false
			}
		}

		probes := float64(len(tuples)) * logicalFactor
		if inner.Mult > logicalFactor {
			logicalFactor = inner.Mult
		}
		outLogical := float64(len(out)) * logicalFactor
		var stepSec float64
		switch step.Algo {
		case engine.JoinHash:
			accSec := refAccessSec(inner, step.Inner, q, cm)
			stepSec = accSec + cm.HashJoinSec(float64(innerMatched)*inner.Mult, probes)
			if ix := step.Inner.Index; ix != nil {
				st.IndexAccessSec[ix.ID()] = engine.IndexAccess{Table: ix.Table, Sec: accSec}
			}
		case engine.JoinIndexNL:
			entryWidth, fetchRows := float64(inner.Meta.RowWidthBytes()), 0.0
			if ix := step.Inner.Index; ix != nil && step.Inner.Kind != engine.AccessClusteredSeek {
				entryWidth = float64(ix.EntryWidthBytes(inner.Meta))
				if !step.Inner.Covering {
					fetchRows = outLogical
				}
			}
			stepSec = cm.NLJoinSec(probes, outLogical, fetchRows, entryWidth, cm.PagesOf(inner.Meta.SizeBytes()))
			if n := len(q.FiltersOn(step.InnerTable)); n > 0 {
				stepSec += outLogical * float64(n) * cm.CPUPredSec
			}
			if ix := step.Inner.Index; ix != nil {
				st.IndexAccessSec[ix.ID()] = engine.IndexAccess{Table: ix.Table, Sec: stepSec}
			}
		}
		st.TotalSec += stepSec
		slot[step.InnerTable] = len(slot)
		tuples = out
	}
	st.OutRows = float64(len(tuples)) * logicalFactor
	st.TotalSec += cm.OutputSec(st.OutRows, q.AggWidth)
	return st, true
}

// refMatches reports whether stored row r of tbl satisfies every filter
// predicate on tbl.
func refMatches(tbl *storage.Table, preds []query.Predicate, r int) bool {
	for _, p := range preds {
		if p.Table == tbl.Meta.Name && !p.Matches(tbl.MustColumn(p.Column)[r]) {
			return false
		}
	}
	return true
}

// refAccessSec is the true time of one access path, with the index seek's
// matching rows counted by a full pass over the stored rows.
func refAccessSec(tbl *storage.Table, acc engine.Access, q *query.Query, cm *engine.CostModel) float64 {
	preds := q.FiltersOn(acc.Table)
	ix := acc.Index
	if acc.Kind == engine.AccessSeqScan || ix == nil {
		return cm.TableScanSec(tbl.Meta, len(preds))
	}
	entryWidth := float64(ix.EntryWidthBytes(tbl.Meta))
	seek, residual := engine.SplitSeekPreds(ix, preds, acc.EqLen, acc.HasRange)
	if len(seek) == 0 {
		return cm.IndexScanSec(float64(tbl.Meta.RowCount), entryWidth, len(preds))
	}
	seekRows := 0
	for r := 0; r < tbl.StoredRows; r++ {
		if refMatches(tbl, seek, r) {
			seekRows++
		}
	}
	match := float64(seekRows) * tbl.Mult
	fetch := match
	if acc.Covering {
		fetch = 0
	}
	sec := cm.IndexSeekSec(match, fetch, entryWidth, cm.PagesOf(tbl.Meta.SizeBytes()))
	if n := len(residual); n > 0 {
		sec += match * float64(n) * cm.CPUPredSec
	}
	return sec
}

// randomConfig draws up to two secondary indexes per referenced table,
// keyed on the query's filter and join columns, some with the payload as
// include columns.
func randomConfig(rng *rand.Rand, q *query.Query) *index.Config {
	cfg := index.NewConfig()
	for _, t := range q.Tables {
		cols := append(q.PredicateColumnsOn(t), q.JoinColumnsOn(t)...)
		for k := rng.Intn(3); k > 0 && len(cols) > 0; k-- {
			rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
			var include []string
			if rng.Intn(2) == 0 {
				include = q.PayloadColumnsOn(t)
			}
			cfg.Add(index.New(t, cols[:1+rng.Intn(min(2, len(cols)))], include))
		}
	}
	return cfg
}

// randomAccess picks seq scan or, when one applies, a configured index
// with a seek prefix or full coverage.
func randomAccess(rng *rand.Rand, q *query.Query, table string, cfg *index.Config) engine.Access {
	acc := engine.Access{Table: table, Kind: engine.AccessSeqScan}
	for _, ix := range cfg.OnTable(table) {
		eqLen, hasRange := ix.SeekPrefix(q.FiltersOn(table))
		covering := ix.CoversQueryOn(q, table)
		if (eqLen > 0 || hasRange || covering) && rng.Intn(2) == 0 {
			kind := engine.AccessIndexSeek
			if covering {
				kind = engine.AccessIndexOnly
			}
			acc = engine.Access{Table: table, Kind: kind, Index: ix, EqLen: eqLen, HasRange: hasRange, Covering: covering}
		}
	}
	return acc
}

// joinOrderPlan builds a left-deep plan from the given driver, joining
// tables in the order the join graph reaches them, each step a hash join
// or, where an index leads with the inner join column (the clustered
// primary key included), a randomly chosen index-nested-loop join.
func joinOrderPlan(rng *rand.Rand, schema *catalog.Schema, q *query.Query, cfg *index.Config, driver string) *engine.Plan {
	p := &engine.Plan{Query: q, Driver: randomAccess(rng, q, driver, cfg)}
	joined := map[string]bool{driver: true}
	for progress := true; progress; {
		progress = false
		for _, j := range q.Joins {
			outerT, outerC, innerT, innerC := j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn
			if joined[innerT] {
				outerT, outerC, innerT, innerC = innerT, innerC, outerT, outerC
			}
			if !joined[outerT] || joined[innerT] {
				continue
			}
			step := engine.JoinStep{
				Pred: j, OuterTable: outerT, OuterColumn: outerC, InnerTable: innerT, InnerColumn: innerC,
				Inner: randomAccess(rng, q, innerT, cfg), Algo: engine.JoinHash,
			}
			if rng.Intn(2) == 0 {
				if pk := schema.MustTable(innerT).PK; len(pk) > 0 && pk[0] == innerC {
					step.Inner, step.Algo = engine.Access{Table: innerT, Kind: engine.AccessClusteredSeek}, engine.JoinIndexNL
				}
				for _, ix := range cfg.OnTable(innerT) {
					if ix.Key[0] == innerC {
						step.Inner = engine.Access{Table: innerT, Kind: engine.AccessIndexSeek, Index: ix, EqLen: 1, Covering: ix.CoversQueryOn(q, innerT)}
						step.Algo = engine.JoinIndexNL
					}
				}
			}
			p.Steps = append(p.Steps, step)
			joined[innerT] = true
			progress = true
		}
	}
	return p
}

// TestExecuteMatchesOracle property-tests Execute against the brute-force
// reference over random TPC-DS templates × index configurations × join
// orders (the optimiser's choice plus one plan per possible driver):
// OutRows, TotalSec, TableScanSec and IndexAccessSec must be bit-equal on
// every plan the oracle can run without sampling.
func TestExecuteMatchesOracle(t *testing.T) {
	bench := workload.TPCDS()
	schema := bench.NewSchema()
	db := datagen.MustBuild(schema, datagen.Options{ScaleFactor: 10, MaxStoredRows: 600, Seed: 3})
	cm := engine.DefaultCostModel()
	opt := optimizer.NewUncached(schema, cm)
	rng := rand.New(rand.NewSource(20261017))

	cases := 150
	if testing.Short() {
		cases = 40
	}
	var checked, skipped, hash, nl, seeks int
	for c := 0; c < cases; c++ {
		q := bench.Templates[rng.Intn(len(bench.Templates))].Instantiate(rng, db, bench.Name)
		cfg := randomConfig(rng, q)
		best, err := opt.ChoosePlan(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plans := []*engine.Plan{best}
		for _, d := range q.Tables {
			plans = append(plans, joinOrderPlan(rng, schema, q, cfg, d))
		}
		for _, p := range plans {
			want, ok := referenceExecute(db, p, cm)
			if !ok {
				skipped++
				continue
			}
			got, err := engine.Execute(db, p, cm)
			if err != nil {
				t.Fatalf("case %d: %s: %v", c, p, err)
			}
			if got.OutRows != want.OutRows || got.TotalSec != want.TotalSec ||
				!reflect.DeepEqual(got.TableScanSec, want.TableScanSec) ||
				!reflect.DeepEqual(got.IndexAccessSec, want.IndexAccessSec) {
				t.Fatalf("case %d: %s\n got  rows=%v sec=%v idx=%v\n want rows=%v sec=%v idx=%v",
					c, p, got.OutRows, got.TotalSec, got.IndexAccessSec, want.OutRows, want.TotalSec, want.IndexAccessSec)
			}
			checked++
			if p.Driver.Index != nil {
				seeks++
			}
			for _, s := range p.Steps {
				if s.Algo == engine.JoinHash {
					hash++
				} else {
					nl++
				}
			}
		}
	}
	t.Logf("%d plans checked (%d hash, %d index-NL steps, %d index drivers), %d over MaxTuples skipped", checked, hash, nl, seeks, skipped)
	if checked < cases || hash == 0 || nl == 0 || seeks == 0 {
		t.Fatalf("oracle exercised too little: %d plans, %d hash, %d NL steps, %d index drivers", checked, hash, nl, seeks)
	}
}
