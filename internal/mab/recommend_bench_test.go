package mab

import (
	"math/rand"
	"testing"

	"dbabandits/internal/catalog"
	"dbabandits/internal/datagen"
	"dbabandits/internal/linalg"
	"dbabandits/internal/query"
	"dbabandits/internal/storage"
	"dbabandits/internal/workload"
)

// tpcdsBenchFixture builds the TPC-DS environment the paper's hardest
// arm-count regime runs on: the full snowflake schema (every schema
// column is one context dimension) and per-round workloads that invoke
// all 99 templates, exactly like the static sequencer.
func tpcdsBenchFixture(b testing.TB, rounds int) (*catalog.Schema, *storage.Database, [][]*query.Query) {
	b.Helper()
	bench, err := workload.ByName("tpcds")
	if err != nil {
		b.Fatal(err)
	}
	schema := bench.NewSchema()
	db, err := datagen.Build(schema, datagen.Options{Seed: 1, ScaleFactor: 10, MaxStoredRows: 1500})
	if err != nil {
		b.Fatal(err)
	}
	wls := make([][]*query.Query, rounds)
	for r := range wls {
		rng := rand.New(rand.NewSource(int64(r)*1_000_003 + 17))
		for _, ts := range bench.Templates {
			wls[r] = append(wls[r], ts.Instantiate(rng, db, bench.Name))
		}
	}
	return schema, db, wls
}

// BenchmarkTunerRecommendTPCDS measures the full recommend loop — query
// store fold-in, arm generation, context building, C2UCB scoring, the
// greedy oracle, and the ridge update — at TPC-DS scale (the paper's
// "over 3200 indices" regime is the arm-count stress case). Later rounds
// replay the same templates, so this is exactly the QoI-window repetition
// profile the per-round overhead of Table I is quoted against.
func BenchmarkTunerRecommendTPCDS(b *testing.B) {
	const rounds = 4
	schema, db, wls := tpcdsBenchFixture(b, rounds)
	dbSize := db.DataSizeBytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuner := NewTuner(schema, dbSize, TunerOptions{MemoryBudgetBytes: dbSize})
		for r := 0; r < rounds; r++ {
			tuner.Recommend(wls[r])
			tuner.ObserveExecution(nil, nil)
		}
	}
}

// BenchmarkTunerRecommendSteadyState measures one warm recommend round:
// the tuner has already seen every template and materialised its memos
// and arena, so each iteration is the round the arena discipline is
// designed for — generation and key lookups all hit, contexts and
// round maps live in recycled scratch. The gap to
// BenchmarkTunerRecommendTPCDS (which rebuilds a tuner per op, paying
// four cold rounds) is the cold-start cost; the allocs/op here is the
// number the benchdiff alloc budget actually guards.
func BenchmarkTunerRecommendSteadyState(b *testing.B) {
	const rounds = 4
	schema, db, wls := tpcdsBenchFixture(b, rounds)
	dbSize := db.DataSizeBytes()
	tuner := NewTuner(schema, dbSize, TunerOptions{MemoryBudgetBytes: dbSize})
	for r := 0; r < rounds; r++ {
		tuner.Recommend(wls[r])
		tuner.ObserveExecution(nil, nil)
	}
	wl := wls[rounds-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuner.Recommend(wl)
		tuner.ObserveExecution(nil, nil)
	}
}

// tpcdsScoresFixture prepares every TPC-DS candidate arm's context plus a
// warmed bandit (the factor no longer diagonal — the realistic
// steady-state shape for the triangular solves).
func tpcdsScoresFixture(b testing.TB) (*C2UCB, []linalg.SparseVector, int) {
	b.Helper()
	schema, db, wls := tpcdsBenchFixture(b, 1)
	dbSize := db.DataSizeBytes()
	ctxb := NewContextBuilder(schema)
	gen := NewArmGenerator(schema, ArmGenOptions{})
	arms := gen.Generate(wls[0])
	predCols := PredicateColumnSet(wls[0])
	ctxs := make([]linalg.SparseVector, len(arms))
	for i, a := range arms {
		ctxs[i] = ctxb.Build(a, ArmInfo{
			PredicateColumns: predCols,
			DatabaseBytes:    dbSize,
		})
	}
	bandit := NewC2UCB(ctxb.Dim(), 0.25, nil)
	bandit.BeginRound()
	for r := 0; r < 4; r++ {
		bandit.Update(ctxs[:8], make([]float64, 8))
	}
	return bandit, ctxs, ctxb.Dim()
}

// BenchmarkScoresBatch measures the Tuner.Recommend-path arm-set
// scoring — C2UCB.Scores over every TPC-DS candidate arm — in the
// steady state Scores actually runs in (theta memoised since the
// round's last observation, widths in one batched pass). The chol
// sub-benchmark name is kept so captures stay comparable with those
// taken while a second ridge backend existed.
func BenchmarkScoresBatch(b *testing.B) {
	b.Run("chol", func(b *testing.B) {
		bandit, ctxs, dim := tpcdsScoresFixture(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bandit.Scores(ctxs)
		}
		b.ReportMetric(float64(len(ctxs)), "arms")
		b.ReportMetric(float64(dim), "dim")
	})
}
