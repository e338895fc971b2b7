package optimizer

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"dbabandits/internal/datagen"
	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/query"
	"dbabandits/internal/storage"
	"dbabandits/internal/testdb"
	"dbabandits/internal/workload"
)

// cacheTestQueries is a workload spanning the planner's decision space:
// single-table scans, seekable filters, covering opportunities, and
// 2-/3-way joins where both hash and index-NL can win.
func cacheTestQueries() []*query.Query {
	return []*query.Query{
		{
			TemplateID: 1,
			Tables:     []string{"orders"},
			Filters: []query.Predicate{
				{Table: "orders", Column: "o_date", Op: query.OpRange, Lo: 100, Hi: 400},
			},
			Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
		},
		{
			TemplateID: 2,
			Tables:     []string{"orders"},
			Filters: []query.Predicate{
				{Table: "orders", Column: "o_custkey", Op: query.OpEq, Lo: 17, Hi: 17},
				{Table: "orders", Column: "o_date", Op: query.OpRange, Lo: 0, Hi: 900},
			},
			Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
		},
		{
			TemplateID: 3,
			Tables:     []string{"customer"},
			Filters: []query.Predicate{
				{Table: "customer", Column: "c_segment", Op: query.OpEq, Lo: 2, Hi: 2},
			},
			Payload: []query.ColumnRef{{Table: "customer", Column: "c_name"}},
		},
		{
			TemplateID: 4,
			Tables:     []string{"orders", "customer"},
			Filters: []query.Predicate{
				{Table: "customer", Column: "c_nation", Op: query.OpEq, Lo: 3, Hi: 3},
			},
			Joins: []query.Join{
				{LeftTable: "orders", LeftColumn: "o_custkey", RightTable: "customer", RightColumn: "c_id"},
			},
			Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
		},
		{
			TemplateID: 5,
			Tables:     []string{"orders", "customer", "part"},
			Filters: []query.Predicate{
				{Table: "customer", Column: "c_nation", Op: query.OpEq, Lo: 7, Hi: 7},
				{Table: "part", Column: "p_size", Op: query.OpRange, Lo: 1, Hi: 15},
			},
			Joins: []query.Join{
				{LeftTable: "orders", LeftColumn: "o_custkey", RightTable: "customer", RightColumn: "c_id"},
				{LeftTable: "orders", LeftColumn: "o_partkey", RightTable: "part", RightColumn: "p_id"},
			},
			Payload: []query.ColumnRef{{Table: "orders", Column: "o_total"}},
		},
	}
}

// cacheTestPool is the candidate index pool the mutation property test
// draws from: seekable, covering, composite, NL-enabling, and
// deliberately irrelevant indexes on every table.
func cacheTestPool() []*index.Index {
	return []*index.Index{
		index.New("orders", []string{"o_date"}, nil),
		index.New("orders", []string{"o_custkey"}, []string{"o_total"}),
		index.New("orders", []string{"o_custkey", "o_date"}, []string{"o_total"}),
		index.New("orders", []string{"o_partkey"}, nil),
		index.New("orders", []string{"o_status"}, []string{"o_comment"}),
		index.New("orders", []string{"o_priority"}, nil),
		index.New("customer", []string{"c_nation"}, nil),
		index.New("customer", []string{"c_nation", "c_segment"}, []string{"c_name"}),
		index.New("customer", []string{"c_segment"}, []string{"c_name"}),
		index.New("customer", []string{"c_name"}, nil),
		index.New("part", []string{"p_size"}, nil),
		index.New("part", []string{"p_brand", "p_size"}, nil),
	}
}

// freshCacheTestQueries draws new instances of the cache test workload
// with jittered predicate constants, plus one value copy of an earlier
// instance (which carries that instance's plan memo) given new
// predicates of its own.
func freshCacheTestQueries(rng *rand.Rand, prev []*query.Query) []*query.Query {
	qs := cacheTestQueries()
	for _, q := range qs {
		for i := range q.Filters {
			f := &q.Filters[i]
			switch f.Op {
			case query.OpEq:
				f.Lo = rng.Int63n(30)
				f.Hi = f.Lo
			case query.OpRange:
				f.Lo = rng.Int63n(500)
				f.Hi = f.Lo + rng.Int63n(500)
			}
		}
	}
	cp := *prev[rng.Intn(len(prev))]
	cp.Filters = append([]query.Predicate(nil), cp.Filters...)
	for i := range cp.Filters {
		cp.Filters[i].Lo /= 2
	}
	return append(qs, &cp)
}

// TestPlanCacheConsistencyRandomMutations is the cache-consistency
// property test: a randomized add/drop/no-op mutation walk over a shared
// Config, pinning the cached optimiser byte-identical to the uncached
// reference on every query after every step — including repeat calls
// (hit path) and nil-config calls. Every 40 steps the walk draws fresh
// query instances (and a value copy of an old one), so memos are built
// mid-walk under an already-mutated configuration and old instances
// are dropped while the optimiser lives on.
func TestPlanCacheConsistencyRandomMutations(t *testing.T) {
	schema, _ := testdb.Build(1)
	cm := engine.DefaultCostModel()
	cached := New(schema, cm)
	ref := NewUncached(schema, cm)
	queries := cacheTestQueries()
	pool := cacheTestPool()

	check := func(step int, cfg *index.Config) {
		t.Helper()
		for _, q := range queries {
			want, werr := ref.ChoosePlan(q, cfg)
			for pass := 0; pass < 2; pass++ { // second pass must hit
				got, gerr := cached.ChoosePlan(q, cfg)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("step %d q%d pass %d: err mismatch: cached %v, uncached %v",
						step, q.TemplateID, pass, gerr, werr)
				}
				if werr != nil {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d q%d pass %d: plan mismatch:\ncached:   %+v\nuncached: %+v",
						step, q.TemplateID, pass, got, want)
				}
				if math.Float64bits(got.EstCost) != math.Float64bits(want.EstCost) {
					t.Fatalf("step %d q%d: cost bits differ: %v vs %v",
						step, q.TemplateID, got.EstCost, want.EstCost)
				}
			}
		}
	}

	check(-1, nil) // nil config never takes the epoch fast path
	cfg := index.NewConfig()
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 300; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // add (no-op when already present)
			cfg.Add(pool[rng.Intn(len(pool))])
		case op < 8: // drop (no-op when absent)
			cfg.Drop(pool[rng.Intn(len(pool))].ID())
		default: // pure no-op step: re-check under unchanged content
		}
		if step%40 == 39 {
			queries = freshCacheTestQueries(rng, queries)
		}
		check(step, cfg)
	}

	st := cached.CacheStats()
	if st.Hits == 0 || st.Misses == 0 || st.Invalidations == 0 {
		t.Fatalf("mutation walk did not exercise all cache paths: %+v", st)
	}
	if ref.CacheStats() != (PlanCacheStats{}) {
		t.Fatalf("uncached optimiser reports stats: %+v", ref.CacheStats())
	}
}

// TestPlanCacheHitMissAccounting pins the counter semantics: miss on
// first sight, epoch fast-path hit on unchanged config, fingerprint hit
// (plus one invalidation) after irrelevant-index churn, miss after a
// relevant change.
func TestPlanCacheHitMissAccounting(t *testing.T) {
	schema, _ := testdb.Build(1)
	o := New(schema, engine.DefaultCostModel())
	q := cacheTestQueries()[1] // orders: o_custkey eq + o_date range
	cfg := index.NewConfig()

	assertStats := func(label string, hits, misses, invals uint64) {
		t.Helper()
		if st := o.CacheStats(); st.Hits != hits || st.Misses != misses || st.Invalidations != invals {
			t.Fatalf("%s: stats = %+v, want {%d %d %d}", label, st, hits, misses, invals)
		}
	}

	if _, err := o.ChoosePlan(q, cfg); err != nil {
		t.Fatal(err)
	}
	assertStats("cold", 0, 1, 0)
	if _, err := o.ChoosePlan(q, cfg); err != nil {
		t.Fatal(err)
	}
	assertStats("epoch fast path", 1, 1, 0)

	// An index that fails every relevance screen for q (no seek prefix on
	// q's predicates, not covering, leading key not a join column):
	// content changed, so the table rescans (one invalidation), but the
	// fingerprint is unchanged and the plan is re-served from cache.
	cfg.Add(index.New("orders", []string{"o_priority"}, nil))
	if _, err := o.ChoosePlan(q, cfg); err != nil {
		t.Fatal(err)
	}
	assertStats("irrelevant churn", 2, 1, 1)

	// A relevant index changes the fingerprint: miss, fresh search.
	cfg.Add(index.New("orders", []string{"o_custkey", "o_date"}, nil))
	if _, err := o.ChoosePlan(q, cfg); err != nil {
		t.Fatal(err)
	}
	assertStats("relevant add", 2, 2, 2)

	// Dropping back restores a previously-seen table signature: the memo
	// swaps the relevant set without a rescan (no invalidation) and the
	// restored fingerprint hits the plan cache.
	cfg.Drop(index.New("orders", []string{"o_custkey", "o_date"}, nil).ID())
	if _, err := o.ChoosePlan(q, cfg); err != nil {
		t.Fatal(err)
	}
	assertStats("relevant drop back", 3, 2, 2)
}

// TestPlanCacheErrorsNotCached pins that error results are re-derived
// with identical text on every call and never enter the cache.
func TestPlanCacheErrorsNotCached(t *testing.T) {
	schema, _ := testdb.Build(1)
	o := New(schema, engine.DefaultCostModel())
	bad := []*query.Query{
		{},
		{Tables: []string{"ghost"}},
		{TemplateID: 9, Tables: []string{"orders", "customer"}}, // disconnected
	}
	for _, q := range bad {
		_, err1 := o.ChoosePlan(q, nil)
		_, err2 := o.ChoosePlan(q, nil)
		if err1 == nil || err2 == nil {
			t.Fatalf("bad query %+v accepted", q)
		}
		if err1.Error() != err2.Error() {
			t.Fatalf("error text drifted between calls: %q vs %q", err1, err2)
		}
	}
	if st := o.CacheStats(); st.Hits != 0 {
		t.Fatalf("error paths produced cache hits: %+v", st)
	}
}

// TestPlanCacheSharedAcrossConfigsByFingerprint pins the headline
// economy: two different Config objects with the same relevant indexes
// for a query share one cached plan.
func TestPlanCacheSharedAcrossConfigsByFingerprint(t *testing.T) {
	schema, _ := testdb.Build(1)
	o := New(schema, engine.DefaultCostModel())
	q := cacheTestQueries()[0] // orders o_date range

	a := index.NewConfig()
	a.Add(index.New("orders", []string{"o_date"}, nil))
	b := a.Clone()
	b.Add(index.New("customer", []string{"c_nation"}, nil)) // other table only

	p1, err := o.ChoosePlan(q, a)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := o.ChoosePlan(q, b)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("equal fingerprints did not share one cached plan")
	}
	if st := o.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// tpchFixture is a small TPC-H database and its template set, for tests
// that need many realistic query instances.
func tpchFixture(t *testing.T) (*workload.Benchmark, *storage.Database) {
	t.Helper()
	bench, err := workload.ByName("tpch")
	if err != nil {
		t.Fatal(err)
	}
	db, err := datagen.Build(bench.NewSchema(), datagen.Options{ScaleFactor: 1, MaxStoredRows: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return bench, db
}

// TestPlanMemoDiesWithInstance pins the cache's lifetime contract: an
// entry lives on its query instance, so planning thousands of fresh
// instances through one optimiser and dropping each leaves the live
// heap where a handful of instances leaves it. No finalizer is used:
// query → entry → query is a cycle, and Go does not promise to run
// finalizers in cycles.
func TestPlanMemoDiesWithInstance(t *testing.T) {
	bench, db := tpchFixture(t)
	o := New(db.Schema, engine.DefaultCostModel())
	var cfgs []*index.Config
	for _, keys := range [][]string{nil, {"l_shipdate"}, {"l_partkey"}, {"l_orderkey", "l_shipdate"}} {
		cfg := index.NewConfig()
		if keys != nil {
			cfg.Add(index.New("lineitem", keys, nil))
		}
		cfg.Add(index.New("orders", []string{"o_orderdate"}, nil))
		cfgs = append(cfgs, cfg)
	}
	rng := rand.New(rand.NewSource(11))
	planFresh := func(n int) {
		for i := 0; i < n; i++ {
			q := bench.Templates[i%len(bench.Templates)].Instantiate(rng, db, "tpch")
			for _, cfg := range cfgs {
				if _, err := o.ChoosePlan(q, cfg); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	planFresh(50)
	small := liveHeap()
	planFresh(3000)
	large := liveHeap()
	if st := o.CacheStats(); st.Misses < 3000 {
		t.Fatalf("instances were not planned through the cache: %+v", st)
	}
	t.Logf("live heap after 50 instances %d B, after 3050 %d B", small, large)
	const slack = 4 << 20
	if large > small+slack {
		t.Fatalf("live heap grew from %d to %d bytes over 3000 dropped instances: plan memos outlive their queries",
			small, large)
	}
}

// TestPlanMemoOwnedByItsOptimizer pins the memo's validity check: one
// instance planned alternately by two optimisers with different cost
// models gets each optimiser's own uncached plan, bit for bit, on every
// call.
func TestPlanMemoOwnedByItsOptimizer(t *testing.T) {
	schema, _ := testdb.Build(1)
	cmA := engine.DefaultCostModel()
	cmB := *cmA
	cmB.CPUPredSec *= 40
	cmB.SeqPageSec *= 0.05
	a, b := New(schema, cmA), New(schema, &cmB)
	refA, refB := NewUncached(schema, cmA), NewUncached(schema, &cmB)

	cfg := index.NewConfig()
	for _, ix := range cacheTestPool() {
		cfg.Add(ix)
	}
	differ := false
	for _, q := range cacheTestQueries() {
		wantA, err := refA.ChoosePlan(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantB, err := refB.ChoosePlan(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		differ = differ || math.Float64bits(wantA.EstCost) != math.Float64bits(wantB.EstCost)
		for round := 0; round < 3; round++ {
			for _, c := range []struct {
				label string
				o     *Optimizer
				want  *engine.Plan
			}{{"a", a, wantA}, {"b", b, wantB}} {
				got, err := c.o.ChoosePlan(q, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, c.want) || math.Float64bits(got.EstCost) != math.Float64bits(c.want.EstCost) {
					t.Fatalf("q%d round %d optimiser %s: got %+v, want %+v", q.TemplateID, round, c.label, got, c.want)
				}
			}
		}
	}
	if !differ {
		t.Fatal("the two cost models price every query alike; the test cannot tell the optimisers apart")
	}
}

// TestPlanMemoNotSharedWithValueCopy pins that a value copy of a planned
// query, which carries the source's memo pointer, is planned as itself.
func TestPlanMemoNotSharedWithValueCopy(t *testing.T) {
	schema, _ := testdb.Build(1)
	cm := engine.DefaultCostModel()
	o, ref := New(schema, cm), NewUncached(schema, cm)
	cfg := index.NewConfig()
	cfg.Add(index.New("orders", []string{"o_custkey", "o_date"}, []string{"o_total"}))
	cfg.Add(index.New("customer", []string{"c_nation"}, nil))

	src := cacheTestQueries()[3] // orders ⋈ customer, c_nation filter
	srcPlan, err := o.ChoosePlan(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp := *src
	cp.Filters = []query.Predicate{
		{Table: "orders", Column: "o_custkey", Op: query.OpEq, Lo: 17, Hi: 17},
		{Table: "orders", Column: "o_date", Op: query.OpRange, Lo: 0, Hi: 50},
	}
	want, err := ref.ChoosePlan(&cp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.ChoosePlan(&cp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Query != &cp || !reflect.DeepEqual(got, want) {
		t.Fatalf("value copy reused its source's memo:\ngot  %+v\nwant %+v", got, want)
	}
	if reflect.DeepEqual(got.Driver, srcPlan.Driver) && got.EstCost == srcPlan.EstCost {
		t.Fatal("copy and source plan alike; the test cannot tell a reused memo apart")
	}
	if again, _ := o.ChoosePlan(src, cfg); again != srcPlan {
		t.Fatal("planning the copy disturbed the source's memo")
	}
}
