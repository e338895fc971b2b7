package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// denseRidge is the closed-form reference the factored core is checked
// against: V and b accumulated explicitly with the dense matrix
// kernels, every query answered from a fresh factorisation of V.
type denseRidge struct {
	V      *Matrix
	B      Vector
	lambda float64
}

func newDenseRidge(dim int, lambda float64) *denseRidge {
	return &denseRidge{V: Identity(dim, lambda), B: NewVector(dim), lambda: lambda}
}

func (d *denseRidge) Observe(x Vector, reward float64) {
	d.V.AddOuterScaled(1, x)
	d.B.AddScaled(reward, x)
}

// Forget is V <- (1-gamma)*V + gamma*lambda*I, b <- (1-gamma)*b.
func (d *denseRidge) Forget(gamma float64) {
	keep := 1 - gamma
	d.V.ScaleInPlace(keep)
	for i := 0; i < d.V.Rows; i++ {
		d.V.Add(i, i, gamma*d.lambda)
	}
	d.B.Scale(keep)
}

func (d *denseRidge) Theta(t *testing.T) Vector {
	t.Helper()
	theta, err := d.V.SolveCholesky(d.B)
	if err != nil {
		t.Fatalf("reference V not positive definite: %v", err)
	}
	return theta
}

func (d *denseRidge) Width(t *testing.T, x Vector) float64 {
	t.Helper()
	inv, err := d.V.Inverse()
	if err != nil {
		t.Fatalf("reference V not invertible: %v", err)
	}
	return math.Sqrt(inv.QuadraticForm(x))
}

// randomRidgeWorkload drives the factored core and the dense reference
// through an identical randomized Observe/Forget sequence: dense and
// sparse observations interleaved, with a partial Forget every
// forgetEvery steps (0 disables).
func randomRidgeWorkload(t *testing.T, dim, steps, forgetEvery int, seed int64) (*denseRidge, *CholState) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := newDenseRidge(dim, 0.25)
	chol := NewCholState(dim, 0.25)
	for s := 0; s < steps; s++ {
		x := NewVector(dim)
		for k := 0; k < dim/6+1; k++ {
			x[rng.Intn(dim)] = rng.NormFloat64()
		}
		r := rng.NormFloat64() * 10
		ref.Observe(x, r)
		if s%2 == 0 {
			chol.Observe(x, r)
		} else {
			chol.ObserveSparse(SparseFromDense(x), r)
		}
		if forgetEvery > 0 && s > 0 && s%forgetEvery == 0 {
			gamma := 0.3 + 0.4*rng.Float64()
			ref.Forget(gamma)
			chol.Forget(gamma)
		}
	}
	return ref, chol
}

// TestCholAgreesWithDenseReference is the closed-form property test: on
// randomized workloads the factored core must reproduce the dense
// reference's theta, widths, and scatter matrix to within tight
// floating-point agreement (the two compute the same quantities by
// different factorisations, so bit-identity is not expected — 1e-8
// relative is).
func TestCholAgreesWithDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, tc := range []struct{ dim, steps, forgetEvery int }{
		{8, 40, 0},
		{24, 120, 25},
		{48, 300, 60},
	} {
		ref, chol := randomRidgeWorkload(t, tc.dim, tc.steps, tc.forgetEvery, int64(tc.dim))

		thetaRef, thetaChol := ref.Theta(t), chol.Theta()
		scale := 1 + thetaRef.MaxAbs()
		for i := range thetaRef {
			if d := math.Abs(thetaRef[i] - thetaChol[i]); d > 1e-8*scale {
				t.Fatalf("dim=%d: theta[%d] diverged: ref=%g chol=%g", tc.dim, i, thetaRef[i], thetaChol[i])
			}
		}

		if d := ref.V.MaxAbsDiff(chol.Scatter()); d > 1e-8*(1+ref.V.MaxAbsDiff(NewMatrix(tc.dim, tc.dim))) {
			t.Fatalf("dim=%d: scatter matrices diverged by %g", tc.dim, d)
		}

		for probe := 0; probe < 20; probe++ {
			x := NewVector(tc.dim)
			for k := 0; k < tc.dim/5+1; k++ {
				x[rng.Intn(tc.dim)] = rng.NormFloat64()
			}
			wRef, wChol := ref.Width(t, x), chol.ConfidenceWidth(x)
			if math.Abs(wRef-wChol) > 1e-8*(1+wRef) {
				t.Fatalf("dim=%d probe %d: width diverged: ref=%g chol=%g", tc.dim, probe, wRef, wChol)
			}
			sx := SparseFromDense(x)
			if w := chol.ConfidenceWidthSparse(sx); math.Abs(w-wChol) > 1e-12*(1+wChol) {
				t.Fatalf("dim=%d probe %d: chol sparse width %g vs dense %g", tc.dim, probe, w, wChol)
			}
		}
	}
}

// TestCholAgreesWithShermanMorrison checks the factored core against a
// second, independent formulation of the same ridge model: V⁻¹ carried
// explicitly and updated by the Sherman–Morrison rank-one identity
// V⁻¹ ← V⁻¹ − (V⁻¹x)(V⁻¹x)ᵀ / (1 + xᵀV⁻¹x), re-inverted from the dense
// V after every Forget. Theta and widths must agree to 1e-8 relative.
func TestCholAgreesWithShermanMorrison(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ dim, steps, forgetEvery int }{
		{6, 30, 0},
		{20, 150, 30},
	} {
		const lambda = 0.25
		ref := newDenseRidge(tc.dim, lambda)
		vinv := Identity(tc.dim, 1/lambda)
		chol := NewCholState(tc.dim, lambda)
		for s := 0; s < tc.steps; s++ {
			x := NewVector(tc.dim)
			for k := 0; k < tc.dim/4+1; k++ {
				x[rng.Intn(tc.dim)] = rng.NormFloat64()
			}
			r := rng.NormFloat64() * 10
			ref.Observe(x, r)
			chol.Observe(x, r)
			u := vinv.MulVec(x)
			vinv.AddOuterScaled(-1/(1+x.Dot(u)), u)
			if tc.forgetEvery > 0 && s > 0 && s%tc.forgetEvery == 0 {
				gamma := 0.3 + 0.4*rng.Float64()
				ref.Forget(gamma)
				chol.Forget(gamma)
				inv, err := ref.V.Inverse()
				if err != nil {
					t.Fatalf("dim=%d: reference V not invertible: %v", tc.dim, err)
				}
				vinv = inv
			}
		}

		thetaSM, thetaChol := vinv.MulVec(ref.B), chol.Theta()
		scale := 1 + thetaSM.MaxAbs()
		for i := range thetaSM {
			if d := math.Abs(thetaSM[i] - thetaChol[i]); d > 1e-8*scale {
				t.Fatalf("dim=%d: theta[%d] diverged: sm=%g chol=%g", tc.dim, i, thetaSM[i], thetaChol[i])
			}
		}
		for probe := 0; probe < 10; probe++ {
			x := NewVector(tc.dim)
			for k := 0; k < tc.dim/3+1; k++ {
				x[rng.Intn(tc.dim)] = rng.NormFloat64()
			}
			wSM, wChol := math.Sqrt(vinv.QuadraticForm(x)), chol.ConfidenceWidth(x)
			if math.Abs(wSM-wChol) > 1e-8*(1+wSM) {
				t.Fatalf("dim=%d probe %d: width diverged: sm=%g chol=%g", tc.dim, probe, wSM, wChol)
			}
		}
	}
}

// TestRidgeCoreBatchMatchesSingleCalls pins the batched scoring API to
// the per-arm kernels bit for bit: batching is an optimisation, never a
// numeric change.
func TestRidgeCoreBatchMatchesSingleCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dim = 32
	var contexts []SparseVector
	for i := 0; i < 40; i++ {
		x := NewVector(dim)
		for k := 0; k < 5; k++ {
			x[rng.Intn(dim)] = rng.NormFloat64()
		}
		contexts = append(contexts, SparseFromDense(x))
	}
	cs := NewCholState(dim, 0.25)
	for i := 0; i < 12; i++ {
		cs.ObserveSparse(contexts[i], rng.NormFloat64())
	}
	widths := make([]float64, len(contexts))
	cs.ConfidenceWidthBatch(contexts, widths)
	quads := make([]float64, len(contexts))
	cs.QuadraticFormBatch(contexts, quads)
	for i, x := range contexts {
		if w := cs.ConfidenceWidthSparse(x); w != widths[i] {
			t.Fatalf("batch width[%d]=%v, single=%v", i, widths[i], w)
		}
		if w := widthFromQuad(quads[i]); w != widths[i] {
			t.Fatalf("quad[%d] inconsistent with width", i)
		}
	}
}

// TestCholSparseObserveMatchesDense: the sparse observe path must be
// bit-identical to the dense one on the same logical vector.
func TestCholSparseObserveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const dim = 24
	dense := NewCholState(dim, 0.25)
	sparse := NewCholState(dim, 0.25)
	for s := 0; s < 60; s++ {
		x := NewVector(dim)
		for k := 0; k < 4; k++ {
			x[rng.Intn(dim)] = rng.NormFloat64()
		}
		r := rng.NormFloat64()
		dense.Observe(x, r)
		sparse.ObserveSparse(SparseFromDense(x), r)
	}
	if d := dense.L.MaxAbsDiff(sparse.L); d != 0 {
		t.Fatalf("sparse observe drifted off the dense factor by %g", d)
	}
	td, ts := dense.Theta(), sparse.Theta()
	for i := range td {
		if td[i] != ts[i] {
			t.Fatalf("theta[%d]: dense %v sparse %v", i, td[i], ts[i])
		}
	}
}

// TestCholDenseWidthDoesNotCorruptSparseScratch pins the scratch
// discipline: a dense ConfidenceWidth call must leave the sparse paths'
// zero-initialised scatter buffer untouched, so a following sparse
// width over a DIFFERENT support reads no stale entries.
func TestCholDenseWidthDoesNotCorruptSparseScratch(t *testing.T) {
	const dim = 10
	cs := NewCholState(dim, 0.25)
	obs := NewVector(dim)
	obs[2], obs[7] = 1.5, -0.5
	cs.Observe(obs, 3)

	y := SparseVector{Dim: dim, Idx: []int{1, 6}, Val: []float64{2, -1}}
	before := cs.ConfidenceWidthSparse(y)

	dense := NewVector(dim)
	for i := range dense {
		dense[i] = float64(i + 1)
	}
	cs.ConfidenceWidth(dense)

	if after := cs.ConfidenceWidthSparse(y); after != before {
		t.Fatalf("dense width corrupted the sparse scratch: %v then %v", before, after)
	}
	q := make([]float64, 1)
	cs.QuadraticFormBatch([]SparseVector{y}, q)
	if w := widthFromQuad(q[0]); w != before {
		t.Fatalf("dense width corrupted the batch path: %v then %v", before, w)
	}
}

// TestRidgeCoresStayPositiveDefinite is the numerical-hygiene property
// test: through long randomized Observe/Forget sequences the factored
// core must keep V symmetric positive definite — the factor's diagonal
// strictly positive, L L' factorisable — and no width may come out NaN.
func TestRidgeCoresStayPositiveDefinite(t *testing.T) {
	const dim = 20
	_, chol := randomRidgeWorkload(t, dim, 500, 40, 3)

	for i := 0; i < dim; i++ {
		if d := chol.L.At(i, i); d <= 0 {
			t.Fatalf("chol factor diagonal %d not positive: %v", i, d)
		}
	}
	if _, err := chol.Scatter().Cholesky(); err != nil {
		t.Fatalf("chol V lost positive definiteness: %v", err)
	}

	rng := rand.New(rand.NewSource(4))
	for probe := 0; probe < 10; probe++ {
		x := NewVector(dim)
		x[rng.Intn(dim)] = rng.NormFloat64()
		if w := chol.ConfidenceWidth(x); math.IsNaN(w) || w < 0 {
			t.Fatalf("chol width NaN/negative: %v", w)
		}
	}
}

// TestWidthClampNearSingular drives the factor to the edge of
// floating-point cancellation — enormous collinear observations against
// a small prior — and requires finite, non-negative widths on every
// scoring path, plus the widthFromQuad clamp: a negative quadratic form
// yields width exactly 0, never NaN.
func TestWidthClampNearSingular(t *testing.T) {
	const dim = 6
	cs := NewCholState(dim, 0.25)
	x := NewVector(dim)
	x[0] = 1e8
	for i := 0; i < 200; i++ {
		cs.Observe(x, 1)
	}
	probe := NewVector(dim)
	probe[0] = 1
	for _, v := range []Vector{x, probe} {
		w := cs.ConfidenceWidth(v)
		if math.IsNaN(w) || w < 0 {
			t.Fatalf("near-singular width: %v", w)
		}
		if ws := cs.ConfidenceWidthSparse(SparseFromDense(v)); ws != w {
			t.Fatalf("near-singular sparse width %v, dense %v", ws, w)
		}
	}
	for _, q := range []float64{-1e-300, -1e-18, -0.0} {
		if got := widthFromQuad(q); got != 0 {
			t.Fatalf("widthFromQuad(%v) = %v, want 0", q, got)
		}
	}
}

// TestThetaMemoisation pins the theta cache: repeated calls between
// observations return the identical cached vector without
// recomputation, and any state change (Observe, ObserveSparse, Forget)
// invalidates it.
func TestThetaMemoisation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dim = 12
	cs := NewCholState(dim, 0.25)
	x := NewVector(dim)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	cs.Observe(x, 3)

	solve := func() Vector { return cs.L.BackSolveTransposed(cs.L.ForwardSolve(cs.B)) }
	t1 := cs.Theta()
	if t2 := cs.Theta(); &t1[0] != &t2[0] {
		t.Fatal("repeated Theta calls recomputed instead of returning the cache")
	}
	if want := solve(); !t1.Equal(want, 0) {
		t.Fatalf("cached theta %v != L'^{-1} L^{-1} b %v", t1, want)
	}

	// An observation must invalidate the cache: theta changes, and the
	// cache serves the new value.
	y := NewVector(dim)
	y[3] = 2
	cs.Observe(y, -5)
	t3 := cs.Theta()
	if t3.Equal(t1, 0) {
		t.Fatal("theta unchanged after observation — stale cache served")
	}
	if want := solve(); !t3.Equal(want, 0) {
		t.Fatalf("post-observe theta %v != L'^{-1} L^{-1} b %v", t3, want)
	}

	cs.ObserveSparse(SparseFromDense(y), 2)
	if cs.Theta().Equal(t3, 0) {
		t.Fatal("theta unchanged after sparse observation — stale cache served")
	}

	before := cs.Theta().Clone()
	cs.Forget(0.9)
	if cs.Theta().Equal(before, 0) {
		t.Fatal("theta unchanged after Forget — stale cache served")
	}
}

// TestCholForgetBounds pins the factored Forget edge cases: gamma <= 0
// is a no-op, gamma >= 1 resets to the prior exactly.
func TestCholForgetBounds(t *testing.T) {
	const dim = 6
	cs := NewCholState(dim, 0.25)
	x := NewVector(dim)
	x[1], x[4] = 2, -1
	cs.Observe(x, 7)

	before := cs.L.Clone()
	cs.Forget(0)
	if cs.L.MaxAbsDiff(before) != 0 {
		t.Fatal("Forget(0) changed the factor")
	}

	cs.Forget(1.5)
	want := Identity(dim, math.Sqrt(0.25))
	if cs.L.MaxAbsDiff(want) != 0 {
		t.Fatal("Forget(>=1) did not reset the factor to sqrt(lambda)*I")
	}
	if cs.B.MaxAbs() != 0 {
		t.Fatal("Forget(>=1) did not clear b")
	}
	if cs.Theta().MaxAbs() != 0 {
		t.Fatal("theta after full forget not zero")
	}
	if cs.Updates() != 1 {
		t.Fatalf("Forget changed Updates to %d, want 1 (observations folded in)", cs.Updates())
	}
}
