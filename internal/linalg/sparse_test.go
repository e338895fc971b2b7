package linalg

import (
	"math/rand"
	"testing"
)

// randSparse draws a context-shaped sparse vector: a few entries at
// random ascending indices. signed=false mimics the bandit's contexts
// (non-negative components); signed=true stresses the kernels harder.
func randSparse(rng *rand.Rand, dim int, signed bool) SparseVector {
	nnz := 1 + rng.Intn(9)
	if nnz > dim {
		nnz = dim
	}
	perm := rng.Perm(dim)[:nnz]
	s := SparseVector{Dim: dim, Idx: perm, Val: make([]float64, nnz)}
	s.Sort()
	for k := range s.Val {
		v := rng.Float64() + 0.01
		if signed && rng.Intn(2) == 0 {
			v = -v
		}
		s.Val[k] = v
	}
	return s
}

// TestSparseKernelsBitIdentical is the core equivalence property: every
// sparse kernel must produce bit-identical results to its dense
// counterpart on the same logical vector — sparsity is an optimisation,
// not a behaviour change.
func TestSparseKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		dim := 5 + rng.Intn(60)
		signed := trial%2 == 1
		s := randSparse(rng, dim, signed)
		d := s.Dense()
		cs := NewCholState(dim, 0.25)
		for k := 0; k < 4; k++ {
			cs.ObserveSparse(randSparse(rng, dim, signed), rng.NormFloat64())
		}

		w := make(Vector, dim)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		if got, want := w.DotSparse(s), w.Dot(d); got != want {
			t.Fatalf("trial %d: DotSparse %v != Dot %v", trial, got, want)
		}
		if got, want := cs.ConfidenceWidthSparse(s), cs.ConfidenceWidth(d); got != want {
			t.Fatalf("trial %d: ConfidenceWidthSparse %v != ConfidenceWidth %v", trial, got, want)
		}

		alpha := rng.NormFloat64()
		vs, vd := w.Clone(), w.Clone()
		vs.AddScaledSparse(alpha, s)
		vd.AddScaled(alpha, d)
		for i := range vs {
			if vs[i] != vd[i] {
				t.Fatalf("trial %d: AddScaledSparse[%d] %v != %v", trial, i, vs[i], vd[i])
			}
		}
	}
}

// TestRidgeSparseObserveBitIdentical drives two ridge states through the
// same observation stream — one densely, one sparsely — across a
// mid-stream Forget, asserting the full state (L, B) and the downstream
// scores stay bit-identical.
func TestRidgeSparseObserveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const dim = 24
	dense := NewCholState(dim, 0.25)
	sparse := NewCholState(dim, 0.25)
	check := func(step int) {
		t.Helper()
		for i := range dense.L.Data {
			if dense.L.Data[i] != sparse.L.Data[i] {
				t.Fatalf("step %d: L diverged at %d: %v vs %v", step, i, dense.L.Data[i], sparse.L.Data[i])
			}
		}
		for i := range dense.B {
			if dense.B[i] != sparse.B[i] {
				t.Fatalf("step %d: B diverged at %d: %v vs %v", step, i, dense.B[i], sparse.B[i])
			}
		}
	}
	for step := 0; step < 600; step++ {
		x := randSparse(rng, dim, false)
		reward := rng.NormFloat64() * 10
		dense.Observe(x.Dense(), reward)
		sparse.ObserveSparse(x, reward)
		check(step)
		if step == 250 {
			dense.Forget(0.5)
			sparse.Forget(0.5)
			check(step)
		}
		probe := randSparse(rng, dim, false)
		wd := dense.ConfidenceWidth(probe.Dense())
		ws := sparse.ConfidenceWidthSparse(probe)
		if wd != ws {
			t.Fatalf("step %d: widths diverged: %v vs %v", step, wd, ws)
		}
	}
	if dense.Updates() != sparse.Updates() {
		t.Fatalf("update counts diverged: %d vs %d", dense.Updates(), sparse.Updates())
	}
}

func TestSparseVectorUtils(t *testing.T) {
	v := Vector{0, 3, 0, 0, -2, 0, 1}
	s := SparseFromDense(v)
	if s.NNZ() != 3 || s.Dim != 7 {
		t.Fatalf("nnz=%d dim=%d", s.NNZ(), s.Dim)
	}
	for i, want := range v {
		if got := s.At(i); got != want {
			t.Fatalf("At(%d) = %v, want %v", i, got, want)
		}
	}
	d := s.Dense()
	for i := range v {
		if d[i] != v[i] {
			t.Fatalf("roundtrip[%d] = %v, want %v", i, d[i], v[i])
		}
	}
	// Sort restores ascending order from arbitrary insertion order.
	u := SparseVector{Dim: 10, Idx: []int{7, 2, 9, 0}, Val: []float64{7, 2, 9, 0.5}}
	u.Sort()
	for k := 1; k < len(u.Idx); k++ {
		if u.Idx[k-1] >= u.Idx[k] {
			t.Fatalf("Sort left indices unsorted: %v", u.Idx)
		}
	}
	for k, i := range u.Idx {
		want := map[int]float64{7: 7, 2: 2, 9: 9, 0: 0.5}[i]
		if u.Val[k] != want {
			t.Fatalf("Sort lost pairing: idx %d -> %v", i, u.Val[k])
		}
	}
}

func TestSparseKernelDimChecks(t *testing.T) {
	s := SparseVector{Dim: 3, Idx: []int{0}, Val: []float64{1}}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("DotSparse", func() { NewVector(2).DotSparse(s) })
	mustPanic("AddScaledSparse", func() { NewVector(2).AddScaledSparse(1, s) })
	mustPanic("ObserveSparse", func() { NewCholState(2, 1).ObserveSparse(s, 0) })
	mustPanic("ConfidenceWidthSparse", func() { NewCholState(2, 1).ConfidenceWidthSparse(s) })
	mustPanic("ConfidenceWidthBatch", func() { NewCholState(2, 1).ConfidenceWidthBatch([]SparseVector{s}, make([]float64, 1)) })
}
