package mab

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestTunerSnapshotRoundTrip snapshots a live tuner mid-run (through a
// JSON round-trip, as the serve checkpoint does), restores it into a
// freshly constructed tuner, and requires the two to agree byte for
// byte — identical recommendations every remaining round and identical
// final snapshots. The subtest is named after the ridge core whose
// factor the snapshot carries.
func TestTunerSnapshotRoundTrip(t *testing.T) {
	t.Run("chol", func(t *testing.T) {
		opts := TunerOptions{}
		h := newMiniHarness(t, opts)
		for round := 1; round <= 5; round++ {
			h.round(t, selectiveWorkload(round))
		}

		snap, err := h.tuner.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var decoded TunerSnapshot
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatal(err)
		}

		h2 := newMiniHarness(t, opts)
		if err := h2.tuner.Restore(&decoded); err != nil {
			t.Fatal(err)
		}
		h2.lastWorkload = h.lastWorkload

		if got, want := h2.tuner.Config().IDs(), h.tuner.Config().IDs(); strings.Join(got, ";") != strings.Join(want, ";") {
			t.Fatalf("restored config %v, want %v", got, want)
		}

		for round := 6; round <= 10; round++ {
			wl := selectiveWorkload(round)
			h.round(t, wl)
			h2.round(t, wl)
			got := strings.Join(h2.tuner.Config().IDs(), ";")
			want := strings.Join(h.tuner.Config().IDs(), ";")
			if got != want {
				t.Fatalf("round %d: restored config %q, want %q", round, got, want)
			}
		}

		finalA, err := h.tuner.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		finalB, err := h2.tuner.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		ja, _ := json.Marshal(finalA)
		jb, _ := json.Marshal(finalB)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("final snapshots diverge:\n%s\nvs\n%s", ja, jb)
		}
	})
}

// TestTunerSnapshotRefusesMidRound pins the round-boundary contract:
// between Recommend and ObserveExecution the pending feedback state is
// not serialisable and Snapshot must refuse.
func TestTunerSnapshotRefusesMidRound(t *testing.T) {
	h := newMiniHarness(t, TunerOptions{})
	h.round(t, selectiveWorkload(1))
	h.tuner.Recommend(h.lastWorkload)
	if _, err := h.tuner.Snapshot(); err == nil {
		t.Fatal("mid-round snapshot accepted")
	}
}

// TestTunerRestoreRejectsDimensionMismatch pins that a snapshot taken
// under different context options (different dimensionality) is
// refused rather than silently misapplied.
func TestTunerRestoreRejectsDimensionMismatch(t *testing.T) {
	h := newMiniHarness(t, TunerOptions{})
	h.round(t, selectiveWorkload(1))
	snap, err := h.tuner.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	h2 := newMiniHarness(t, TunerOptions{UpdateAwareContext: true})
	if err := h2.tuner.Restore(snap); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}
