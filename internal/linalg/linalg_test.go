package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorDot(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("dot = %v, want 32", got)
	}
}

func TestVectorDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestVectorAddScaled(t *testing.T) {
	v := Vector{1, 1}
	v.AddScaled(2, Vector{3, 4})
	if !v.Equal(Vector{7, 9}, 0) {
		t.Fatalf("axpy = %v", v)
	}
}

func TestVectorScaleAndNorm(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Norm2(); got != 5 {
		t.Fatalf("norm = %v", got)
	}
	v.Scale(2)
	if !v.Equal(Vector{6, 8}, 0) {
		t.Fatalf("scale = %v", v)
	}
}

func TestVectorMaxAbs(t *testing.T) {
	if got := (Vector{-7, 2, 5}).MaxAbs(); got != 7 {
		t.Fatalf("maxabs = %v", got)
	}
	if got := (Vector{}).MaxAbs(); got != 0 {
		t.Fatalf("maxabs empty = %v", got)
	}
}

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 9
	if v[0] != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(3, 2.5)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 2.5
			}
			if m.At(i, j) != want {
				t.Fatalf("identity(%d,%d) = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	got := m.MulVec(Vector{1, 1, 1})
	if !got.Equal(Vector{6, 15}, 0) {
		t.Fatalf("mulvec = %v", got)
	}
}

func TestMatrixAddOuterScaled(t *testing.T) {
	m := Identity(2, 1)
	m.AddOuterScaled(2, Vector{1, 2})
	want := [][]float64{{3, 4}, {4, 9}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if m.At(i, j) != want[i][j] {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, m.At(i, j), want[i][j])
			}
		}
	}
}

func TestQuadraticFormMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(8)
		m := randomSPD(rng, n)
		x := randomVec(rng, n)
		explicit := x.Dot(m.MulVec(x))
		if !almostEqual(m.QuadraticForm(x), explicit, 1e-9*(1+math.Abs(explicit))) {
			t.Fatalf("quadratic form mismatch: %v vs %v", m.QuadraticForm(x), explicit)
		}
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(10)
		m := randomSPD(rng, n)
		l, err := m.Cholesky()
		if err != nil {
			t.Fatalf("cholesky failed: %v", err)
		}
		// reconstruct L L' and compare
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k <= min(i, j); k++ {
					s += l.At(i, k) * l.At(j, k)
				}
				if !almostEqual(s, m.At(i, j), 1e-8*(1+math.Abs(m.At(i, j)))) {
					t.Fatalf("LL' (%d,%d) = %v, want %v", i, j, s, m.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := m.Cholesky(); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	m := NewMatrix(2, 3)
	if _, err := m.Cholesky(); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
	if _, err := m.Inverse(); err == nil {
		t.Fatal("expected inverse error for non-square matrix")
	}
}

func TestSolveCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(10)
		m := randomSPD(rng, n)
		want := randomVec(rng, n)
		b := m.MulVec(want)
		got, err := m.SolveCholesky(b)
		if err != nil {
			t.Fatalf("solve failed: %v", err)
		}
		if !got.Equal(want, 1e-6*(1+want.MaxAbs())) {
			t.Fatalf("solve = %v, want %v", got, want)
		}
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(8)
		m := randomSPD(rng, n)
		inv, err := m.Inverse()
		if err != nil {
			t.Fatalf("inverse failed: %v", err)
		}
		// m * inv should be identity
		for i := 0; i < n; i++ {
			col := NewVector(n)
			for k := 0; k < n; k++ {
				col[k] = inv.At(k, i)
			}
			prod := m.MulVec(col)
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEqual(prod[j], want, 1e-7) {
					t.Fatalf("m*inv (%d,%d) = %v", j, i, prod[j])
				}
			}
		}
	}
}

func TestSymmetrize(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 2, 4, 3})
	m.SymmetrizeInPlace()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Fatalf("symmetrize = %v", m.Data)
	}
}

// --- CholState ---

func TestRidgeRecoverLinearModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dim := 6
	theta := randomVec(rng, dim)
	cs := NewCholState(dim, 0.01)
	for i := 0; i < 4000; i++ {
		x := randomVec(rng, dim)
		cs.Observe(x, theta.Dot(x)+rng.NormFloat64()*0.01)
	}
	got := cs.Theta()
	if !got.Equal(theta, 0.05) {
		t.Fatalf("theta = %v, want %v", got, theta)
	}
}

// The factor never forms an inverse, but the inverse it implies must
// stay exact over a long history: widths through L match quadratic
// forms of a freshly computed V^{-1}.
func TestRidgeInverseStaysFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	dim := 5
	cs := NewCholState(dim, 1)
	v := Identity(dim, 1)
	for i := 0; i < 1000; i++ {
		x := randomVec(rng, dim)
		cs.Observe(x, rng.Float64())
		v.AddOuterScaled(1, x)
	}
	exact, err := v.Inverse()
	if err != nil {
		t.Fatalf("exact inverse failed: %v", err)
	}
	for probe := 0; probe < 10; probe++ {
		x := randomVec(rng, dim)
		want := math.Sqrt(exact.QuadraticForm(x))
		if got := cs.ConfidenceWidth(x); math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("probe %d: width %v, exact inverse gives %v", probe, got, want)
		}
	}
}

func TestRidgeConfidenceShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dim := 4
	cs := NewCholState(dim, 1)
	x := randomVec(rng, dim)
	before := cs.ConfidenceWidth(x)
	for i := 0; i < 50; i++ {
		cs.Observe(x, 1)
	}
	after := cs.ConfidenceWidth(x)
	if after >= before {
		t.Fatalf("confidence did not shrink: before %v, after %v", before, after)
	}
}

func TestRidgeForgetFullReset(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	cs := NewCholState(3, 2)
	for i := 0; i < 20; i++ {
		cs.Observe(randomVec(rng, 3), 1)
	}
	cs.Forget(1)
	if d := cs.Scatter().MaxAbsDiff(Identity(3, 2)); d > 1e-9 {
		t.Fatalf("forget(1) did not reset V, diff %v", d)
	}
	if cs.B.MaxAbs() > 1e-12 {
		t.Fatalf("forget(1) did not reset b: %v", cs.B)
	}
}

func TestRidgeForgetPartialKeepsDefiniteness(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cs := NewCholState(4, 0.5)
	v := Identity(4, 0.5)
	for i := 0; i < 30; i++ {
		x := randomVec(rng, 4)
		cs.Observe(x, rng.Float64())
		v.AddOuterScaled(1, x)
	}
	cs.Forget(0.5)
	scatter := cs.Scatter()
	if _, err := scatter.Cholesky(); err != nil {
		t.Fatalf("V not positive definite after partial forget: %v", err)
	}
	// V must be exactly the discounted scatter 0.5*V + 0.5*lambda*I.
	v.ScaleInPlace(0.5)
	for i := 0; i < 4; i++ {
		v.Add(i, i, 0.25)
	}
	if d := scatter.MaxAbsDiff(v); d > 1e-8 {
		t.Fatalf("factor stale after forget: %v", d)
	}
}

func TestRidgeForgetNoOp(t *testing.T) {
	cs := NewCholState(2, 1)
	cs.Observe(Vector{1, 0}, 3)
	before := cs.L.Clone()
	cs.Forget(0)
	if d := cs.L.MaxAbsDiff(before); d != 0 {
		t.Fatalf("forget(0) changed L by %v", d)
	}
}

func TestRidgePanicsOnBadArgs(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero dim", func() { NewCholState(0, 1) })
	mustPanic("zero lambda", func() { NewCholState(2, 0) })
	mustPanic("dim mismatch", func() { NewCholState(2, 1).Observe(Vector{1}, 0) })
	mustPanic("sparse dim mismatch", func() { NewCholState(2, 1).ObserveSparse(SparseVector{Dim: 3}, 0) })
}

// --- property-based tests ---

// Property: for any observation sequence, theta from the incremental state
// equals the closed-form ridge solution (V computed from scratch).
func TestQuickRidgeMatchesClosedForm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(6)
		n := rng.Intn(40)
		cs := NewCholState(dim, 1)
		v := Identity(dim, 1)
		b := NewVector(dim)
		for i := 0; i < n; i++ {
			x := randomVec(rng, dim)
			r := rng.NormFloat64()
			cs.Observe(x, r)
			v.AddOuterScaled(1, x)
			b.AddScaled(r, x)
		}
		want, err := v.SolveCholesky(b)
		if err != nil {
			return false
		}
		return cs.Theta().Equal(want, 1e-6*(1+want.MaxAbs()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: confidence width is non-negative and zero only for the zero
// vector (V is positive definite).
func TestQuickConfidenceWidthPositive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(6)
		cs := NewCholState(dim, 0.5)
		for i := 0; i < rng.Intn(30); i++ {
			cs.Observe(randomVec(rng, dim), rng.NormFloat64())
		}
		x := randomVec(rng, dim)
		w := cs.ConfidenceWidth(x)
		if w < 0 {
			return false
		}
		if x.Norm2() > 1e-9 && w == 0 {
			return false
		}
		return cs.ConfidenceWidth(NewVector(dim)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cholesky round-trips any random SPD matrix.
func TestQuickCholeskySPD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		m := randomSPD(rng, n)
		l, err := m.Cholesky()
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if l.At(i, i) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// --- helpers ---

func randomVec(rng *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// randomSPD builds A'A + I which is symmetric positive definite.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	m := Identity(n, 1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a.At(k, i) * a.At(k, j)
			}
			m.Add(i, j, s)
		}
	}
	return m
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
