package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// kind names what a span covers. Layer kinds wrap one call into a
// module's public function; the loop kinds (episode, round) group them.
type kind uint8

const (
	kindEpisode kind = iota
	kindRound
	kindRecommend
	kindAccounting
	kindInstantiate
	kindChoosePlan
	kindExecute
	kindObserve
	kindFeed
	kindSnapshot
	kindWrite
	numKinds
)

var kindNames = [numKinds]string{
	kindEpisode:     "driver.episode",
	kindRound:       "driver.round",
	kindRecommend:   "policy.recommend",
	kindAccounting:  "env.accounting",
	kindInstantiate: "workload.instantiate",
	kindChoosePlan:  "optimizer.chooseplan",
	kindExecute:     "engine.execute",
	kindObserve:     "policy.observe",
	kindFeed:        "serve.feed",
	kindSnapshot:    "serve.checkpoint_snapshot",
	kindWrite:       "serve.checkpoint_write",
}

// isLayer reports whether a kind times a call into the program, as
// opposed to grouping such calls.
func (k kind) isLayer() bool { return k != kindEpisode && k != kindRound }

// span is one timed interval. Parent is the ID of the span that caused
// it (-1 for none); Req is shared by every span of one round or window.
type span struct {
	ID, Parent, Req int32
	Kind            kind
	Start, End      int64 // nanoseconds since the tracer's origin
}

// tracer keeps spans in memory; they are written out once the run ends.
// A nil tracer records nothing, so the same loop serves traced and
// untraced runs.
type tracer struct {
	origin time.Time
	spans  []span
	req    int32
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open reserves a span that encloses others and returns its ID; close
// fills it in once the enclosed work has finished.
func (t *tracer) open() int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{})
	return int32(len(t.spans) - 1)
}

// close completes the span open reserved.
func (t *tracer) close(id int32, k kind, parent int32, start time.Time) {
	if t == nil {
		return
	}
	t.spans[id] = span{
		ID: id, Parent: parent, Req: t.req, Kind: k,
		Start: int64(start.Sub(t.origin)),
		End:   int64(time.Since(t.origin)),
	}
}

// end records a leaf span of kind k that started at start and ends now.
func (t *tracer) end(k kind, parent int32, start time.Time) {
	if t == nil {
		return
	}
	id := t.open()
	t.close(id, k, parent, start)
}

// nextRequest starts a new round or window: spans recorded from here on
// share a fresh request identifier.
func (t *tracer) nextRequest() {
	if t != nil {
		t.req++
	}
}

// layerTotals are the per-kind busy times and call counts of a trace.
type layerTotals struct {
	busy   [numKinds]time.Duration
	calls  [numKinds]int
	execUs []float64 // each engine.Execute call, microseconds
}

func (t *tracer) totals() layerTotals {
	var lt layerTotals
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		lt.busy[s.Kind] += d
		lt.calls[s.Kind]++
		if s.Kind == kindExecute {
			lt.execUs = append(lt.execUs, float64(d)/float64(time.Microsecond))
		}
	}
	return lt
}

// layerBusy is the summed duration of every layer span: the part of the
// episodes' wall clock spent inside the program's calls.
func (lt layerTotals) layerBusy() time.Duration {
	var d time.Duration
	for k := kind(0); k < numKinds; k++ {
		if k.isLayer() {
			d += lt.busy[k]
		}
	}
	return d
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			ID, Parent, Req int32
			Name            string
			StartNs, EndNs  int64
		}{s.ID, s.Parent, s.Req, kindNames[s.Kind], s.Start, s.End}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// runtime/metrics names read by the benchmark.
const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mHeapUnused  = "/memory/classes/heap/unused:bytes"
	mAllocs      = "/gc/heap/allocs:bytes"
	mCycles      = "/gc/cycles/total:gc-cycles"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mLive        = "/gc/heap/live:bytes"
)

// heapInuse returns the runtime's HeapInuse: bytes in in-use spans,
// objects plus the unused tail of those spans. runtime/metrics reads it
// without stopping the world.
func heapInuse() uint64 {
	s := []metrics.Sample{{Name: mHeapObjects}, {Name: mHeapUnused}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// gcCounters are the cumulative collector counters at one instant.
type gcCounters struct {
	allocBytes, cycles uint64
	cpuSec             float64
}

func readGC() gcCounters {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mCycles}, {Name: mGCCPU}}
	metrics.Read(s)
	return gcCounters{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64()}
}

func (a gcCounters) sub(b gcCounters) gcCounters {
	return gcCounters{a.allocBytes - b.allocBytes, a.cycles - b.cycles, a.cpuSec - b.cpuSec}
}

func (a gcCounters) add(b gcCounters) gcCounters {
	return gcCounters{a.allocBytes + b.allocBytes, a.cycles + b.cycles, a.cpuSec + b.cpuSec}
}

// liveHeap is the heap the last collection marked live; call it right
// after runtime.GC.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: mLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// checkMetrics fails fast if this Go release lacks a metric the
// benchmark reads (metrics.Read reports that as KindBad, not an error).
func checkMetrics() error {
	names := []string{mHeapObjects, mHeapUnused, mAllocs, mCycles, mGCCPU, mLive}
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() == metrics.KindBad {
			return fmt.Errorf("runtime metric %s is not supported", x.Name)
		}
	}
	return nil
}
