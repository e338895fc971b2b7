package engine_test

import (
	"math/rand"
	"sync"
	"testing"

	"dbabandits/internal/datagen"
	"dbabandits/internal/engine"
	"dbabandits/internal/index"
	"dbabandits/internal/optimizer"
	"dbabandits/internal/storage"
	"dbabandits/internal/workload"
)

// adhocPlan materialises TPC-DS at SF 10 with the given stored-row cap
// and returns the optimiser's plan (no secondary indexes) for one instance
// of the template with the most joins, drawn at a fixed seed.
func adhocPlan(tb testing.TB, maxStoredRows int) (*storage.Database, *engine.Plan, *engine.CostModel) {
	tb.Helper()
	bench := workload.TPCDS()
	schema := bench.NewSchema()
	db := datagen.MustBuild(schema, datagen.Options{ScaleFactor: 10, MaxStoredRows: maxStoredRows, Seed: 1})
	widest := bench.Templates[0]
	for _, ts := range bench.Templates {
		if len(ts.Joins) > len(widest.Joins) {
			widest = ts
		}
	}
	q := widest.Instantiate(rand.New(rand.NewSource(1)), db, bench.Name)
	cm := engine.DefaultCostModel()
	p, err := optimizer.NewUncached(schema, cm).ChoosePlan(q, index.NewConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return db, p, cm
}

// BenchmarkExecuteTPCDS executes a multi-join ad-hoc TPC-DS plan over the
// end-to-end cell's database shape (SF 10, 5000 stored rows).
func BenchmarkExecuteTPCDS(b *testing.B) {
	db, p, cm := adhocPlan(b, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Execute(db, p, cm); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExecuteAllocsFlat pins Execute's allocations to a ceiling that does
// not grow with the data: the same multi-join plan, run over databases
// with 5× apart stored-row caps, allocates the same small number of
// objects per call. Tuple and selection buffers come from pooled scratch,
// so only the ExecStats and its maps, and per-table predicate lists,
// remain. (Under the race detector sync.Pool drops some returned scratch
// on purpose, which adds a few allocations per call on average.)
func TestExecuteAllocsFlat(t *testing.T) {
	const ceiling = 32
	small, p, cm := adhocPlan(t, 1000)
	large, _, _ := adhocPlan(t, 5000)
	for _, c := range []struct {
		rows int
		db   *storage.Database
	}{{1000, small}, {5000, large}} {
		if _, err := engine.Execute(c.db, p, cm); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := engine.Execute(c.db, p, cm); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d stored rows: %.0f allocs/op", c.rows, allocs)
		if allocs > ceiling {
			t.Errorf("%d stored rows: %.0f allocs/op, want <= %d", c.rows, allocs, ceiling)
		}
	}
}

// TestExecuteConcurrent runs one plan from several goroutines at once
// over a shared database: the pooled scratch must never be shared between
// calls, so every call returns the serial result.
func TestExecuteConcurrent(t *testing.T) {
	db, p, cm := adhocPlan(t, 1000)
	want, err := engine.Execute(db, p, cm)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := engine.Execute(db, p, cm)
				if err != nil {
					t.Error(err)
					return
				}
				if got.OutRows != want.OutRows || got.TotalSec != want.TotalSec {
					t.Errorf("concurrent Execute = (%v rows, %v s), serial (%v rows, %v s)", got.OutRows, got.TotalSec, want.OutRows, want.TotalSec)
					return
				}
			}
		}()
	}
	wg.Wait()
}
