package env

import (
	"encoding/json"
	"testing"

	"dbabandits/internal/index"
	"dbabandits/internal/policy"
)

// pdtoolEnv is a small random-regime environment: the regime whose
// PDTool retrains on the trailing observed rounds (rounds 5, 9, 13, ...).
func pdtoolEnv(t *testing.T, rounds int) *Environment {
	t.Helper()
	e, err := New(Options{
		Benchmark:     "ssb",
		Regime:        Random,
		ScaleFactor:   10,
		MaxStoredRows: 1500,
		Rounds:        rounds,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPDToolSnapshotKeepsTrailingWindows pins that PDTool keeps, and
// checkpoints, only the observed rounds it can still train on: after
// nine observed rounds its snapshot holds the last four, and no
// separate copy of the last one.
func TestPDToolSnapshotKeepsTrailingWindows(t *testing.T) {
	const rounds = 10
	e := pdtoolEnv(t, rounds)
	p, err := policy.New("pdtool", e, e.policyParams())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := e.RunPolicySpan(p, Span{}); err != nil {
		t.Fatal(err)
	}
	raw, err := p.(policy.Snapshotter).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		History json.RawMessage
		Windows []json.RawMessage
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.History != nil {
		t.Fatalf("snapshot still carries History: %.80s", snap.History)
	}
	// Round r's Recommend observes round r-1, so rounds 1..9 were seen.
	if len(snap.Windows) != 4 {
		t.Fatalf("snapshot holds %d windows, want the trailing 4", len(snap.Windows))
	}
	for i, w := range snap.Windows {
		want, _ := json.Marshal(e.WorkloadAt(rounds - 4 + i))
		if string(w) != string(want) {
			t.Fatalf("window %d is not round %d's workload", i, rounds-4+i)
		}
	}
}

// TestPDToolRestoresOldImage pins checkpoint compatibility: an image in
// the older format, with a History field and every observed round
// (ten here), restores to a policy whose remaining run is
// byte-identical to the uninterrupted one.
func TestPDToolRestoresOldImage(t *testing.T) {
	const total, cut = 18, 11
	golden, err := pdtoolEnv(t, total).Run("pdtool")
	if err != nil {
		t.Fatal(err)
	}

	eB := pdtoolEnv(t, total)
	p1, err := policy.New("pdtool", eB, eB.policyParams())
	if err != nil {
		t.Fatal(err)
	}
	rec := &cfgRecorder{Policy: p1, cfg: index.NewConfig()}
	head, err := eB.RunPolicySpan(rec, Span{From: 1, To: cut})
	if err != nil {
		t.Fatal(err)
	}
	p1.Close()

	// The old format: the configuration, History (a copy of the last
	// observed round) and every observed round, oldest first.
	var windows []json.RawMessage
	for r := 1; r < cut; r++ {
		w, err := json.Marshal(eB.WorkloadAt(r))
		if err != nil {
			t.Fatal(err)
		}
		windows = append(windows, w)
	}
	if len(windows) != 10 {
		t.Fatalf("old image holds %d windows, want 10", len(windows))
	}
	image, err := json.Marshal(map[string]any{
		"Config":  rec.cfg.Defs(),
		"History": windows[len(windows)-1],
		"Windows": windows,
	})
	if err != nil {
		t.Fatal(err)
	}

	eC := pdtoolEnv(t, total)
	p2, err := policy.New("pdtool", eC, eC.policyParams())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if err := p2.(policy.Snapshotter).Restore(image); err != nil {
		t.Fatal(err)
	}
	tail, err := eC.RunPolicySpan(p2, Span{
		From:        cut + 1,
		To:          total,
		StartConfig: index.ConfigFromDefs(rec.cfg.Defs()),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := append(append([]RoundResult(nil), head.Rounds...), tail.Rounds...)
	ja, _ := json.Marshal(golden.Rounds)
	jb, _ := json.Marshal(got)
	if string(ja) != string(jb) {
		t.Fatalf("run restored from an old-format image diverged:\n%s\nvs\n%s", jb, ja)
	}
}
