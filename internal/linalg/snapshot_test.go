package linalg

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dbabandits/internal/floatenc"
)

// feed drives a core through a mixed observation history: dense and
// sparse observes, interleaved scoring reads (which exercise the theta
// memo), and a mid-stream Forget.
func feed(t *testing.T, core *CholState, dim, steps int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		switch i % 4 {
		case 0, 1:
			x := NewVector(dim)
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			core.Observe(x, rng.Float64()*10-2)
		case 2:
			nnz := 1 + rng.Intn(dim/2)
			sx := SparseVector{Dim: dim}
			for _, j := range rng.Perm(dim)[:nnz] {
				sx.Idx = append(sx.Idx, j)
				sx.Val = append(sx.Val, rng.NormFloat64())
			}
			core.ObserveSparse(sx, rng.Float64())
		default:
			core.Theta()
			if i == steps/2 {
				core.Forget(0.3)
			}
		}
	}
}

// fingerprint captures bit-exact outputs of every scoring entry point.
func fingerprint(core *CholState, dim int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	var out []uint64
	for _, v := range core.Theta() {
		out = append(out, math.Float64bits(v))
	}
	x := NewVector(dim)
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	out = append(out, math.Float64bits(core.ConfidenceWidth(x)))
	var xs []SparseVector
	for k := 0; k < 5; k++ {
		sx := SparseVector{Dim: dim}
		for _, j := range rng.Perm(dim)[:2+k%3] {
			sx.Idx = append(sx.Idx, j)
			sx.Val = append(sx.Val, rng.NormFloat64())
		}
		xs = append(xs, sx)
		out = append(out, math.Float64bits(core.ConfidenceWidthSparse(sx)))
	}
	batch := make([]float64, len(xs))
	core.ConfidenceWidthBatch(xs, batch)
	for _, v := range batch {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// TestSnapshotRoundTrip snapshots the state mid-history (through a
// JSON round-trip, as a checkpoint would), restores it, continues both
// the original and the restored state through identical further
// observations, and requires bit-identical outputs from every scoring
// path. The subtest is named after the core it round-trips.
func TestSnapshotRoundTrip(t *testing.T) {
	const dim = 12
	t.Run("chol", func(t *testing.T) {
		core := NewCholState(dim, 0.5)
		feed(t, core, dim, 40, 11)

		raw, err := json.Marshal(core.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var snap RidgeSnapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreCholState(&snap)
		if err != nil {
			t.Fatal(err)
		}
		if restored.Updates() != core.Updates() {
			t.Fatalf("updates %d, want %d", restored.Updates(), core.Updates())
		}

		// Continue both through the same further history; every subsequent
		// output must match bit for bit.
		feed(t, core, dim, 30, 23)
		feed(t, restored, dim, 30, 23)
		want := fingerprint(core, dim, 5)
		got := fingerprint(restored, dim, 5)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("fingerprint %d: %x != %x", i, got[i], want[i])
			}
		}
	})
}

// TestSnapshotErrors pins the refusal paths for malformed snapshots.
func TestSnapshotErrors(t *testing.T) {
	if _, err := RestoreCholState(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if _, err := RestoreCholState(&RidgeSnapshot{Dim: 0, Lambda: 1}); err == nil {
		t.Fatal("zero dim accepted")
	}
	for _, lambda := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		s := NewCholState(3, 1).Snapshot()
		s.Lambda = lambda
		if _, err := RestoreCholState(s); err == nil {
			t.Fatalf("lambda %v accepted", lambda)
		}
	}
	bad := NewCholState(3, 1).Snapshot()
	bad.L = bad.L[:4]
	if _, err := RestoreCholState(bad); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// TestRestoreRejectsBadFactor corrupts one entry of an otherwise valid
// snapshot per case and requires the restore to fail with an error
// naming the defect: a corrupt factor must never be resumed silently.
func TestRestoreRejectsBadFactor(t *testing.T) {
	const dim = 5
	src := NewCholState(dim, 0.5)
	feed(t, src, dim, 20, 7)
	for _, tc := range []struct {
		name   string
		mutate func(l, b []float64)
		want   string
	}{
		{"NaN in L", func(l, b []float64) { l[3*dim+1] = math.NaN() }, "not finite"},
		{"Inf in L", func(l, b []float64) { l[2*dim+2] = math.Inf(1) }, "not finite"},
		{"NaN in B", func(l, b []float64) { b[4] = math.NaN() }, "not finite"},
		{"-Inf in B", func(l, b []float64) { b[0] = math.Inf(-1) }, "not finite"},
		{"zero diagonal", func(l, b []float64) { l[1*dim+1] = 0 }, "diagonal must be positive"},
		{"negative diagonal", func(l, b []float64) { l[4*dim+4] = -0.5 }, "diagonal must be positive"},
		{"entry above diagonal", func(l, b []float64) { l[0*dim+3] = 1e-12 }, "lower triangular"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := src.Snapshot()
			l, err := floatenc.DecodeLen(snap.L, dim*dim)
			if err != nil {
				t.Fatal(err)
			}
			b, err := floatenc.DecodeLen(snap.B, dim)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(l, b)
			snap.L, snap.B = floatenc.Encode(l), floatenc.Encode(b)
			_, err = RestoreCholState(snap)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore error %v, want one containing %q", err, tc.want)
			}
		})
	}
	if _, err := RestoreCholState(src.Snapshot()); err != nil {
		t.Fatalf("unmodified snapshot rejected: %v", err)
	}
}
