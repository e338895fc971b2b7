package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major square-or-rectangular matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n x n identity matrix scaled by lambda.
func Identity(n int, lambda float64) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = lambda
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec computes m * v into a new vector.
func (m *Matrix) MulVec(v Vector) Vector {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("linalg: mulvec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(v)))
	}
	out := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, x := range row {
			s += x * v[j]
		}
		out[i] = s
	}
	return out
}

// AddOuterScaled adds alpha * x*x' to m in place. m must be square with
// dimension len(x). Only valid for symmetric accumulation such as the
// bandit scatter matrix V_t = V_{t-1} + sum x x'.
func (m *Matrix) AddOuterScaled(alpha float64, x Vector) {
	n := len(x)
	if m.Rows != n || m.Cols != n {
		panic(fmt.Sprintf("linalg: outer shape mismatch %dx%d += %d outer", m.Rows, m.Cols, n))
	}
	for i := 0; i < n; i++ {
		xi := alpha * x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			row[j] += xi * x[j]
		}
	}
}

// ScaleInPlace multiplies every entry by alpha.
func (m *Matrix) ScaleInPlace(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// QuadraticForm computes x' * m * x without allocating.
func (m *Matrix) QuadraticForm(x Vector) float64 {
	n := len(x)
	if m.Rows != n || m.Cols != n {
		panic(fmt.Sprintf("linalg: quadratic form shape mismatch %dx%d with %d", m.Rows, m.Cols, n))
	}
	var total float64
	for i := 0; i < n; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*n : (i+1)*n]
		var s float64
		for j := 0; j < n; j++ {
			s += row[j] * x[j]
		}
		total += xi * s
	}
	return total
}

// SymmetrizeInPlace averages m with its transpose, correcting the slow
// drift that repeated floating-point rank-1 updates introduce.
func (m *Matrix) SymmetrizeInPlace() {
	if m.Rows != m.Cols {
		panic("linalg: symmetrize of non-square matrix")
	}
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			avg := 0.5 * (m.Data[i*n+j] + m.Data[j*n+i])
			m.Data[i*n+j] = avg
			m.Data[j*n+i] = avg
		}
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "%10.4f ", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Cholesky computes the lower-triangular factor L with m = L L'. It
// returns an error if m is not (numerically) symmetric positive definite.
func (m *Matrix) Cholesky() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: cholesky of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("linalg: matrix not positive definite at pivot %d (%g)", i, sum)
				}
				l.Set(i, j, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveCholesky solves m*x = b using a fresh Cholesky factorisation.
func (m *Matrix) SolveCholesky(b Vector) (Vector, error) {
	l, err := m.Cholesky()
	if err != nil {
		return nil, err
	}
	y := l.ForwardSolve(b)
	return l.BackSolveTransposed(y), nil
}

// ForwardSolve solves L*y = b for lower-triangular L (receiver).
func (m *Matrix) ForwardSolve(b Vector) Vector {
	n := m.Rows
	y := NewVector(n)
	for i := 0; i < n; i++ {
		sum := b[i]
		row := m.Data[i*n : i*n+i]
		for k, v := range row {
			sum -= v * y[k]
		}
		y[i] = sum / m.At(i, i)
	}
	return y
}

// BackSolveTransposed solves L'*x = y for lower-triangular L (receiver).
func (m *Matrix) BackSolveTransposed(y Vector) Vector {
	n := m.Rows
	x := NewVector(n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= m.At(k, i) * x[k]
		}
		x[i] = sum / m.At(i, i)
	}
	return x
}

// Inverse computes the matrix inverse via Cholesky. Intended for tests and
// diagnostics; the ridge core (CholState) never forms an inverse.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: inverse of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	l, err := m.Cholesky()
	if err != nil {
		return nil, err
	}
	inv := NewMatrix(n, n)
	e := NewVector(n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		y := l.ForwardSolve(e)
		x := l.BackSolveTransposed(y)
		for i := 0; i < n; i++ {
			inv.Set(i, j, x[i])
		}
	}
	return inv, nil
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// m and other; useful for drift checks in tests.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return math.Inf(1)
	}
	var worst float64
	for i, v := range m.Data {
		if d := math.Abs(v - other.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}
