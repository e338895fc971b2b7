package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dbabandits/internal/serve"
	"dbabandits/internal/workload"
)

const (
	// windowsPerSession is the length of one session's window stream, a
	// multiple of the number of window sizes.
	windowsPerSession = 200
	// minIDs and maxIDs bound the template ids drawn per window.
	minIDs, maxIDs = 2, 5
)

// serving is one closed-loop client feeding a MAB serving session over
// TPC-DS: a generated line-protocol stream, a checkpoint after every
// window as the serve command writes by default, and the guardrail at
// its defaults.
type serving struct {
	dir string
	// ckpts are the untraced loop's checkpoint paths, one per sub-seed,
	// each holding its last session's final image.
	ckpts map[int64]string
}

func newServing(dir string) *serving {
	return &serving{dir: dir, ckpts: map[int64]string{}}
}

func (s *serving) options(sub int64) serve.Options {
	return serve.Options{
		Benchmark:     "tpcds",
		ScaleFactor:   10,
		MaxStoredRows: 5000,
		Seed:          sub,
		Policy:        "mab",
	}
}

// streamText generates a session's window stream: each line holds
// minIDs..maxIDs template ids drawn uniformly from the TPC-DS set. Every
// window size occurs equally often, in seeded order, so each session
// serves the same number of statements and queries_per_s does not move
// with the draw. The program sees only this text.
func streamText(sub int64) string {
	templates := workload.TPCDS().Templates
	rng := rand.New(rand.NewSource(sub))
	sizes := make([]int, windowsPerSession)
	for w := range sizes {
		sizes[w] = minIDs + w%(maxIDs-minIDs+1)
	}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	var b strings.Builder
	for _, n := range sizes {
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(templates[rng.Intn(len(templates))].ID))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (s *serving) setup(sub int64) error {
	sess, err := serve.New(s.options(sub))
	if err == nil {
		sess.Close()
	}
	return err
}

func (s *serving) episode(sub int64) (episode, error) {
	path := filepath.Join(s.dir, fmt.Sprintf("untraced-%d.ckpt", sub))
	s.ckpts[sub] = path
	ep, _, err := s.session(sub, path, nil, false)
	return ep, err
}

func (s *serving) traced(sub int64, tr *tracer) (episode, layerCounters, error) {
	path := filepath.Join(s.dir, fmt.Sprintf("traced-%d.ckpt", sub))
	return s.session(sub, path, tr, true)
}

// session serves one stream. Each window is Stream.Next, Session.Feed
// and Session.WriteCheckpoint; the traced loop (traced true) also calls
// Session.Checkpoint first, so the snapshot gets a span of its own. A
// Feed error ends the session and fails every window left; a failed
// checkpoint fails its window.
func (s *serving) session(sub int64, path string, tr *tracer, traced bool) (episode, layerCounters, error) {
	text := streamText(sub)
	t0 := time.Now()
	sess, err := serve.New(s.options(sub))
	if err != nil {
		return episode{}, layerCounters{}, err
	}
	defer sess.Close()
	st := serve.NewStream(strings.NewReader(text), sess)
	ep := episode{setupSec: time.Since(t0).Seconds(), ops: windowsPerSession}
	var (
		lc   layerCounters
		reps []*serve.WindowReport
	)
	gc0 := readGC()
	id := tr.open()
	tLoop := time.Now()
	for {
		tr.nextRequest()
		tWin := time.Now()
		win, err := st.Next()
		tr.end(kindInstantiate, id, tWin)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve seed %d: %v\n", sub, err)
			break
		}
		t := time.Now()
		rep, err := sess.Feed(win)
		tr.end(kindFeed, id, t)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve seed %d: %v\n", sub, err)
			break
		}
		ok := windowOK(len(reps)+1, len(win), rep)
		if traced {
			t = time.Now()
			_, err := sess.Checkpoint()
			tr.end(kindSnapshot, id, t)
			ok = ok && err == nil
		}
		t = time.Now()
		err = sess.WriteCheckpoint(path)
		tr.end(kindWrite, id, t)
		ep.lapsMs = append(ep.lapsMs, float64(time.Since(tWin))/float64(time.Millisecond))
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve seed %d: checkpoint: %v\n", sub, err)
			ok = false
		}
		if !ok {
			ep.failed++
		}
		if h := heapInuse(); h > ep.heapPeak {
			ep.heapPeak = h
		}
		reps = append(reps, rep)
		ep.statements += rep.NumQueries
		ep.modelled += rep.RecommendSec + rep.CreateSec + rep.ExecSec
		if rep.Violation {
			lc.violations++
		}
	}
	tr.close(id, kindEpisode, -1, tLoop)
	ep.loopSec = time.Since(tLoop).Seconds()
	lc.gc = readGC().sub(gc0)
	lc.quarantines = sess.Quarantines()
	if fi, err := os.Stat(path); err == nil {
		lc.ckptBytes = fi.Size()
	}
	if traced {
		runtime.GC()
		lc.liveHeap = liveHeap()
		runtime.KeepAlive(sess)
	}
	// Every window not served failed: the one whose call errored and
	// any the stream never reached.
	ep.failed += ep.ops - len(reps)
	if ep.failed == 0 {
		ep.results = digests(reps)
	}
	return ep, lc, nil
}

// windowOK checks one window's report: its number, its statement count
// and finite non-negative costs with a positive execution time.
func windowOK(want, queries int, r *serve.WindowReport) bool {
	for _, v := range []float64{r.RecommendSec, r.CreateSec, r.ExecSec, r.BaselineSec} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return false
		}
	}
	return r.Window == want && r.NumQueries == queries && r.ExecSec > 0 && r.NumIndexes == len(r.Indexes)
}

// check restores each sub-seed's last checkpoint, checkpoints the
// restored session again and byte-compares the two images. Each restore
// is one operation.
func (s *serving) check() (attempted, failed int) {
	for sub, path := range s.ckpts {
		attempted++
		if err := restoreMatches(path); err != nil {
			fmt.Fprintf(os.Stderr, "serve seed %d: restore check: %v\n", sub, err)
			failed++
		}
	}
	return attempted, failed
}

func restoreMatches(path string) error {
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sess, err := serve.RestoreFile(path)
	if err != nil {
		return err
	}
	defer sess.Close()
	again := path + ".again"
	if err := sess.WriteCheckpoint(again); err != nil {
		return err
	}
	got, err := os.ReadFile(again)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("re-checkpointed image (%d bytes) differs from the written one (%d bytes)", len(got), len(want))
	}
	return nil
}
