// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload through the library's public API from one goroutine,
// checks the outputs, and prints one JSON result line:
//
//	go run ./e2ebench --workload cell-adhoc-mab --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an
// untraced timed loop. With --trace 1 it carries the per-layer metrics
// of a separate traced pass, which times every call the benchmark makes
// into a module's public functions; the spans are written as JSON lines
// under --workdir. BENCHMARK.json lists the workloads and metrics, and
// layers.json beside this file records which end-to-end metric each
// layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dbabandits/internal/env"
)

const (
	// episodesPerPass is how many distinct sub-seeds one run covers:
	// every run measures at least this many episodes, and the traced
	// pass runs each once.
	episodesPerPass = 6
	// tailP is the percentile window_p95_ms reports; the timed loop runs
	// until its samples can carry it (at least minBeyond above it).
	tailP = 95
	// maxLoop stops a timed loop that cannot reach its sample count, so
	// a run always ends well inside its time limit.
	maxLoop = 120 * time.Second
	// setupsPerSeed is how many extra set-ups per sub-seed the run times
	// before its loop, on top of each episode's own, for setup_s.
	setupsPerSeed = 3
)

// episode is one unit of measured work: a 25-round tuning cell or a
// serving session over a fixed window stream.
type episode struct {
	setupSec   float64
	loopSec    float64
	statements int
	lapsMs     []float64 // closed-loop time of each round or window
	heapPeak   uint64    // largest HeapInuse at a round or window boundary
	ops        int       // rounds or windows attempted
	failed     int       // rounds or windows whose call or check failed
	modelled   float64   // modelled recommend+create+execute+maintenance seconds
	// results are the per-operation digests; nil when the episode failed.
	results []string
}

// layerCounters are the per-layer counts one traced episode gathers.
type layerCounters struct {
	hits, misses, invalidations uint64
	whatIf                      uint64
	outRows                     float64
	ckptBytes                   int64
	quarantines, violations     int
	gc                          gcCounters
	liveHeap                    uint64
}

func (a *layerCounters) add(b layerCounters) {
	a.hits += b.hits
	a.misses += b.misses
	a.invalidations += b.invalidations
	a.whatIf += b.whatIf
	a.outRows += b.outRows
	a.ckptBytes += b.ckptBytes
	a.quarantines += b.quarantines
	a.violations += b.violations
	a.gc = a.gc.add(b.gc)
	if b.liveHeap > a.liveHeap {
		a.liveHeap = b.liveHeap
	}
}

// target is one named benchmark workload.
type target interface {
	// episode sets up and runs one untraced episode on a sub-seed; an
	// error means set-up failed and the run cannot go on.
	episode(sub int64) (episode, error)
	// setup builds and releases one episode's program state, the work
	// setup_s times.
	setup(sub int64) error
	// traced runs the same episode through the benchmark's own traced
	// loop, recording spans into tr (nil records none).
	traced(sub int64, tr *tracer) (episode, layerCounters, error)
	// check verifies what the timed loop left behind, outside timing.
	check() (attempted, failed int)
}

// report accumulates the timed loop's end-to-end figures.
type report struct {
	episodes   int
	setups     []float64
	loopSec    float64
	statements int
	qps        []float64 // statements per second of each episode
	// blocks group the laps of consecutive episodes, each block holding
	// enough samples for the tail percentile; the last may be short
	// until the loop ends.
	blocks            [][]float64
	heapPeak          uint64
	attempted, failed int
	refs              map[int64][]string // first results seen per sub-seed
	modelled          map[int64]float64
}

func newReport() *report {
	return &report{refs: map[int64][]string{}, modelled: map[int64]float64{}}
}

// add folds one episode in. A repeated sub-seed must reproduce its first
// results bit for bit; every differing round or window counts as failed.
func (r *report) add(sub int64, ep episode) {
	r.episodes++
	r.setups = append(r.setups, ep.setupSec)
	r.loopSec += ep.loopSec
	r.statements += ep.statements
	r.qps = append(r.qps, float64(ep.statements)/ep.loopSec)
	if n := len(r.blocks); n == 0 || supports(len(r.blocks[n-1]), tailP) {
		r.blocks = append(r.blocks, nil)
	}
	last := len(r.blocks) - 1
	r.blocks[last] = append(r.blocks[last], ep.lapsMs...)
	if ep.heapPeak > r.heapPeak {
		r.heapPeak = ep.heapPeak
	}
	r.attempted += ep.ops
	r.failed += ep.failed
	if ep.results == nil {
		return
	}
	if ref, ok := r.refs[sub]; ok {
		r.failed += mismatches(ref, ep.results)
		return
	}
	r.refs[sub] = ep.results
	r.modelled[sub] = ep.modelled
}

// subSeeds derives the run's distinct episode seeds from the workload
// seed.
func subSeeds(seed int64) []int64 {
	out := make([]int64, episodesPerPass)
	for i := range out {
		out[i] = seed*1000 + int64(i)
	}
	return out
}

// laps returns every lap sample.
func (r *report) laps() []float64 {
	var all []float64
	for _, b := range r.blocks {
		all = append(all, b...)
	}
	return all
}

// lapPercentile is the median over blocks of each block's percentile p;
// a short last block is folded into the one before it.
func (r *report) lapPercentile(p float64) float64 {
	blocks := r.blocks
	if n := len(blocks); n > 1 && !supports(len(blocks[n-1]), tailP) {
		merged := append(append([]float64(nil), blocks[n-2]...), blocks[n-1]...)
		blocks = append(blocks[:n-2:n-2], merged)
	}
	per := make([]float64, len(blocks))
	for i, b := range blocks {
		per[i] = percentile(b, p)
	}
	return median(per)
}

// timedLoop first times setupsPerSeed set-ups per sub-seed, which also
// warms the program up. It then runs untraced episodes, cycling over the
// sub-seeds, until every sub-seed has run, the loop has measured the
// requested seconds and the first block of laps can carry the tail
// percentile. A forced collection before each set-up, outside all
// timing, starts every episode from the same heap state.
func timedLoop(w target, subs []int64, seconds float64) (*report, error) {
	rep := newReport()
	for i := 0; i < setupsPerSeed*len(subs); i++ {
		runtime.GC()
		t := time.Now()
		if err := w.setup(subs[i%len(subs)]); err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(t).Seconds())
	}
	start := time.Now()
	for n := 0; ; n++ {
		if n >= len(subs) && rep.loopSec >= seconds && supports(len(rep.blocks[0]), tailP) {
			return rep, nil
		}
		if time.Since(start) > maxLoop {
			return nil, fmt.Errorf("timed loop: %d samples after %v cannot carry p%v", len(rep.laps()), maxLoop, tailP)
		}
		sub := subs[n%len(subs)]
		runtime.GC()
		ep, err := w.episode(sub)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "episode %d seed %d: set-up %.4fs, %d statements in %.3fs, laps p50 %.2fms max %.2fms, %d of %d failed\n",
			n+1, sub, ep.setupSec, ep.statements, ep.loopSec, percentile(ep.lapsMs, 50), percentile(ep.lapsMs, 100), ep.failed, ep.ops)
		rep.add(sub, ep)
	}
}

// endToEnd derives the end-to-end metrics from the timed loop.
func (r *report) endToEnd(subs []int64) map[string]metric {
	var modelled float64
	for _, s := range subs {
		modelled += r.modelled[s]
	}
	return map[string]metric{
		"setup_s":          {median(r.setups), "s"},
		"queries_per_s":    {median(r.qps), "1/s"},
		"window_p50_ms":    {r.lapPercentile(50), "ms"},
		"window_p95_ms":    {r.lapPercentile(tailP), "ms"},
		"modelled_total_s": {modelled / float64(len(subs)), "s"},
		"heap_peak_mb":     {mb(r.heapPeak), "MB"},
	}
}

// pass is what replay gathers.
type pass struct {
	lc                layerCounters
	qps               []float64 // statements per second of each episode
	attempted, failed int
}

// replay runs each sub-seed once through the benchmark's traced loop and
// checks it against the timed loop's first results for that seed: the
// traced loop must reproduce the program's own loop bit for bit.
func replay(w target, subs []int64, rep *report, tr *tracer) (pass, error) {
	var p pass
	for _, sub := range subs {
		runtime.GC()
		ep, c, err := w.traced(sub, tr)
		if err != nil {
			return p, err
		}
		p.lc.add(c)
		p.qps = append(p.qps, float64(ep.statements)/ep.loopSec)
		p.attempted += ep.ops
		p.failed += ep.failed
		if ep.results != nil {
			p.failed += mismatches(rep.refs[sub], ep.results)
		}
	}
	return p, nil
}

// layerMetrics derives the per-layer metrics of a traced replay over
// every sub-seed. Times and counts are per episode.
func layerMetrics(p pass, rep *report, tr *tracer) map[string]metric {
	lc := p.lc
	lt := tr.totals()
	n := float64(len(p.qps))
	perEp := func(d time.Duration) float64 { return d.Seconds() / n }
	loop := lt.busy[kindEpisode]
	var hitRatio float64
	if lookups := lc.hits + lc.misses; lookups > 0 {
		hitRatio = float64(lc.hits) / float64(lookups)
	}
	var execP95 float64
	if supports(len(lt.execUs), tailP) {
		execP95 = percentile(lt.execUs, tailP)
	}
	return map[string]metric{
		"engine.execute_s":              {perEp(lt.busy[kindExecute]), "s/episode"},
		"engine.execute_calls":          {float64(lt.calls[kindExecute]) / n, "count/episode"},
		"engine.execute_p95_us":         {execP95, "us"},
		"engine.out_rows":               {lc.outRows / n, "rows/episode"},
		"optimizer.chooseplan_s":        {perEp(lt.busy[kindChoosePlan]), "s/episode"},
		"optimizer.chooseplan_calls":    {float64(lt.calls[kindChoosePlan]) / n, "count/episode"},
		"optimizer.cache_hit_ratio":     {hitRatio, "ratio"},
		"optimizer.cache_lookups":       {float64(lc.hits+lc.misses) / n, "count/episode"},
		"optimizer.cache_invalidations": {float64(lc.invalidations) / n, "count/episode"},
		"policy.recommend_s":            {perEp(lt.busy[kindRecommend]), "s/episode"},
		"policy.observe_s":              {perEp(lt.busy[kindObserve]), "s/episode"},
		"policy.whatif_calls":           {float64(lc.whatIf) / n, "count/episode"},
		"workload.instantiate_s":        {perEp(lt.busy[kindInstantiate]), "s/episode"},
		"env.accounting_s":              {perEp(lt.busy[kindAccounting]), "s/episode"},
		"serve.feed_s":                  {perEp(lt.busy[kindFeed]), "s/episode"},
		"serve.checkpoint_snapshot_s":   {perEp(lt.busy[kindSnapshot]), "s/episode"},
		"serve.checkpoint_write_s":      {perEp(lt.busy[kindWrite]), "s/episode"},
		"serve.checkpoint_bytes":        {float64(lc.ckptBytes) / n, "bytes"},
		"serve.quarantines":             {float64(lc.quarantines) / n, "count/episode"},
		"serve.violations":              {float64(lc.violations) / n, "count/episode"},
		"gc.alloc_mb":                   {mb(lc.gc.allocBytes) / n, "MB/episode"},
		"gc.cycles":                     {float64(lc.gc.cycles) / n, "count/episode"},
		"gc.cpu_s":                      {lc.gc.cpuSec / n, "s/episode"},
		"gc.live_heap_mb":               {mb(lc.liveHeap), "MB"},
		"driver.self_s":                 {perEp(loop - lt.layerBusy()), "s/episode"},
		"driver.window_samples":         {float64(len(rep.laps())), "count"},
		"trace.loop_s":                  {perEp(loop), "s/episode"},
		"trace.overhead_frac":           {1 - median(p.qps)/median(rep.qps), "ratio"},
	}
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// newWorkload builds the named workload; checkpoints go under dir.
func newWorkload(name, dir string) (target, error) {
	switch name {
	case "cell-adhoc-mab":
		return cell{tuner: env.MAB}, nil
	case "cell-adhoc-pdtool":
		return cell{tuner: env.PDTool}, nil
	case "serve-adhoc-ckpt":
		return newServing(dir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have cell-adhoc-mab, cell-adhoc-pdtool, serve-adhoc-ckpt)", name)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 25, "seconds the timed loop measures at least")
		trace   = flag.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for checkpoints and spans")
	)
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(name string, seed int64, seconds float64, trace bool, workdir string) (res *result, err error) {
	if err := checkMetrics(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	w, err := newWorkload(name, dir)
	if err != nil {
		return nil, err
	}
	subs := subSeeds(seed)

	rep, err := timedLoop(w, subs, seconds)
	if err != nil {
		return nil, err
	}
	attempted, failed := w.check()
	attempted += rep.attempted
	failed += rep.failed
	e2e := rep.endToEnd(subs)
	fmt.Fprintf(os.Stderr, "%s seed %d: %d episodes, %d statements in %.2fs, %d window samples\n",
		name, seed, rep.episodes, rep.statements, rep.loopSec, len(rep.laps()))
	printMetrics(e2e)

	// Untraced runs replay the first sub-seed only, as an output check;
	// traced runs replay them all for the per-layer split.
	var tr *tracer
	replayed := subs[:1]
	if trace {
		tr, replayed = newTracer(), subs
	}
	p, err := replay(w, replayed, rep, tr)
	if err != nil {
		return nil, err
	}
	attempted += p.attempted
	failed += p.failed
	metrics := e2e
	if trace {
		metrics = layerMetrics(p, rep, tr)
		printMetrics(metrics)
		path := filepath.Join(workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(tr.spans), path)
	}
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	fmt.Fprintf(os.Stderr, "%d of %d operations failed\n", failed, attempted)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
