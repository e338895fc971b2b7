// Package linalg provides the small linear-algebra kernel used by the
// C2UCB bandit: dense and sparse vectors, square matrices, and the ridge
// regression itself (CholState), kept as the Cholesky factor of its
// scatter matrix and updated by rank-1 rotations.
//
// The package is deliberately minimal and allocation-conscious: the bandit
// performs one rank-1 update per played arm per round and one confidence
// width per candidate arm per round, so those two operations dominate.
package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zero vector of dimension n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product v·w. It panics if dimensions differ.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: dot dimension mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// AddScaled adds alpha*w to v in place and returns v.
func (v Vector) AddScaled(alpha float64, w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: axpy dimension mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += alpha * w[i]
	}
	return v
}

// Scale multiplies every element of v by alpha in place and returns v.
func (v Vector) Scale(alpha float64) Vector {
	for i := range v {
		v[i] *= alpha
	}
	return v
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element of v (0 for empty vectors).
func (v Vector) MaxAbs() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Equal reports whether v and w agree element-wise within tol.
func (v Vector) Equal(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}
