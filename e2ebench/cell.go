package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"dbabandits/internal/engine"
	"dbabandits/internal/env"
	"dbabandits/internal/index"
	"dbabandits/internal/policy"
	"dbabandits/internal/query"
)

// cell is an experiment cell: one tuner over the ad-hoc TPC-DS regime
// (25 rounds of 99 randomly drawn templates), at SF 10 with 5000 stored
// rows, the default index budget and the paper's one-hour PDTool cap.
type cell struct {
	tuner env.TunerKind
}

func (c cell) options(sub int64) env.Options {
	return env.Options{
		Benchmark:          "tpcds",
		Regime:             env.Random,
		ScaleFactor:        10,
		MaxStoredRows:      5000,
		Seed:               sub,
		PDToolTimeLimitSec: 3600,
	}
}

// build is what setup_s times: the environment and the policy.
func (c cell) build(sub int64) (*env.Environment, policy.Policy, error) {
	e, err := env.New(c.options(sub))
	if err != nil {
		return nil, nil, err
	}
	p, err := e.NewPolicy(c.tuner)
	if err != nil {
		return nil, nil, err
	}
	return e, p, nil
}

func (c cell) setup(sub int64) error {
	_, p, err := c.build(sub)
	if err == nil {
		p.Close()
	}
	return err
}

// episode drives one cell with env.RunPolicy, the program's own round
// loop.
func (c cell) episode(sub int64) (episode, error) {
	t0 := time.Now()
	e, p, err := c.build(sub)
	if err != nil {
		return episode{}, err
	}
	ep := episode{setupSec: time.Since(t0).Seconds(), ops: e.Seq.Rounds()}
	clk := &roundClock{Policy: p}
	t1 := time.Now()
	res, err := e.RunPolicy(clk)
	clk.lap()
	ep.loopSec = time.Since(t1).Seconds()
	ep.statements, ep.lapsMs, ep.heapPeak = clk.statements, clk.laps, clk.peak
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s seed %d: %v\n", c.tuner, sub, err)
		ep.failed = ep.ops
		return ep, nil
	}
	ep.finish(res.Rounds)
	return ep, nil
}

// finish checks a cell's rounds, counting every malformed or missing
// round as failed, and records the modelled total and the digests.
func (ep *episode) finish(rounds []env.RoundResult) {
	bad := 0
	if len(rounds) < ep.ops {
		bad = ep.ops - len(rounds)
	}
	for i, r := range rounds {
		if !roundOK(i+1, r) {
			bad++
		}
		ep.modelled += r.TotalSec()
	}
	ep.failed += bad
	if bad == 0 {
		ep.results = digests(rounds)
	}
}

// roundOK checks one round's accounting: its number, finite
// non-negative costs and a positive execution time.
func roundOK(want int, r env.RoundResult) bool {
	for _, v := range []float64{r.RecommendSec, r.CreateSec, r.ExecSec, r.MaintenanceSec} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return false
		}
	}
	return r.Round == want && r.ExecSec > 0 && r.NumIndexes >= 0
}

// roundClock wraps the policy env.RunPolicy drives. Each Recommend marks
// a round boundary: it closes the previous round's lap and samples the
// heap. Observe counts the statements the round executed. Embedding
// forwards only policy.Policy, which is all the analytical regimes ask
// of a policy (UpdateAware matters only under HTAP).
type roundClock struct {
	policy.Policy
	last       time.Time
	laps       []float64
	peak       uint64
	statements int
}

func (c *roundClock) Recommend(round int, lastWorkload []*query.Query) policy.Recommendation {
	c.lap()
	return c.Policy.Recommend(round, lastWorkload)
}

func (c *roundClock) Observe(stats []*engine.ExecStats, creationSec map[string]float64) {
	c.statements += len(stats)
	c.Policy.Observe(stats, creationSec)
}

// lap marks a round boundary.
func (c *roundClock) lap() {
	now := time.Now()
	if !c.last.IsZero() {
		c.laps = append(c.laps, float64(now.Sub(c.last))/float64(time.Millisecond))
	}
	c.last = now
	if h := heapInuse(); h > c.peak {
		c.peak = h
	}
}

// traced runs one cell through mirror, the benchmark's own copy of the
// round loop, and gathers the optimiser, engine and collector counters.
func (c cell) traced(sub int64, tr *tracer) (episode, layerCounters, error) {
	e, p, err := c.build(sub)
	if err != nil {
		return episode{}, layerCounters{}, err
	}
	ep := episode{ops: e.Seq.Rounds()}
	var lc layerCounters
	cache0, gc0 := e.Opt.CacheStats(), readGC()
	id := tr.open()
	t0 := time.Now()
	rounds, err := mirror(e, p, tr, id, &ep, &lc)
	tr.close(id, kindEpisode, -1, t0)
	ep.loopSec = time.Since(t0).Seconds()
	lc.gc = readGC().sub(gc0)
	cache := e.Opt.CacheStats()
	lc.hits = cache.Hits - cache0.Hits
	lc.misses = cache.Misses - cache0.Misses
	lc.invalidations = cache.Invalidations - cache0.Invalidations
	runtime.GC()
	lc.liveHeap = liveHeap()
	runtime.KeepAlive(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s seed %d (traced): %v\n", c.tuner, sub, err)
		ep.failed = ep.ops
		return ep, lc, nil
	}
	ep.finish(rounds)
	return ep, lc, nil
}

// mirror is env.RunPolicy rebuilt from public calls, with a span around
// each call into a module: Policy.Recommend, CreationCost,
// Sequencer.Round, Optimizer.ChoosePlan, engine.Execute,
// MaintenanceCost, ObserveUpdates and Observe. Its rounds must equal
// env.RunPolicy's bit for bit.
func mirror(e *env.Environment, p policy.Policy, tr *tracer, parent int32, ep *episode, lc *layerCounters) ([]env.RoundResult, error) {
	defer p.Close()
	hasUpdates := e.HasUpdates()
	cfg := index.NewConfig()
	var (
		lastWorkload []*query.Query
		rounds       []env.RoundResult
		stats        []*engine.ExecStats
	)
	for r := 1; r <= e.Seq.Rounds(); r++ {
		tr.nextRequest()
		round := tr.open()
		tRound := time.Now()

		before := e.Opt.CacheStats()
		t := time.Now()
		rec := p.Recommend(r, lastWorkload)
		tr.end(kindRecommend, round, t)
		after := e.Opt.CacheStats()
		lc.whatIf += (after.Hits + after.Misses) - (before.Hits + before.Misses)

		next := rec.Config
		if next == nil {
			next = cfg
		}
		t = time.Now()
		perCreate, createSec := e.CreationCost(next.Diff(cfg))
		tr.end(kindAccounting, round, t)
		cfg = next

		t = time.Now()
		wl := e.Seq.Round(r)
		tr.end(kindInstantiate, round, t)

		var execSec float64
		stats = stats[:0]
		for _, q := range wl {
			t = time.Now()
			plan, err := e.Opt.ChoosePlan(q, cfg)
			tr.end(kindChoosePlan, round, t)
			if err != nil {
				return rounds, fmt.Errorf("round %d: planning template %d: %w", r, q.TemplateID, err)
			}
			t = time.Now()
			st, err := engine.Execute(e.DB, plan, e.CM)
			tr.end(kindExecute, round, t)
			if err != nil {
				return rounds, fmt.Errorf("round %d: executing template %d: %w", r, q.TemplateID, err)
			}
			execSec += st.TotalSec
			lc.outRows += st.OutRows
			stats = append(stats, st)
		}
		ep.statements += len(stats)

		var (
			updates  []query.Update
			maintSec float64
		)
		if hasUpdates {
			updates = e.UpdatesAt(r)
			t = time.Now()
			perMaint, sec := e.MaintenanceCost(updates, cfg)
			tr.end(kindAccounting, round, t)
			maintSec = sec
			if ua, ok := p.(policy.UpdateAware); ok {
				t = time.Now()
				ua.ObserveUpdates(updates, perMaint)
				tr.end(kindObserve, round, t)
			}
		}
		t = time.Now()
		p.Observe(stats, perCreate)
		tr.end(kindObserve, round, t)
		lastWorkload = wl

		rounds = append(rounds, env.RoundResult{
			Round:          r,
			RecommendSec:   rec.RecommendSec,
			CreateSec:      createSec,
			ExecSec:        execSec,
			MaintenanceSec: maintSec,
			NumUpdates:     len(updates),
			NumIndexes:     cfg.Len(),
		})
		tr.close(round, kindRound, parent, tRound)
	}
	return rounds, nil
}

// check has nothing to add for a cell: its results are checked as they
// arrive and against the mirror loop.
func (c cell) check() (attempted, failed int) { return 0, 0 }
