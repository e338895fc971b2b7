package linalg

import (
	"fmt"
	"sort"
)

// SparseVector is a sparse column vector of logical dimension Dim:
// parallel slices of ascending, unique indices and their values. The
// C2UCB context vectors are the motivating case — at most a handful of
// non-zeros (one per index key column plus three derived statistics) out
// of one dimension per schema column — so the sparse kernels touch only
// the stored entries, and the ridge core's sparse solves start at a
// context's first non-zero.
//
// Every sparse kernel iterates the stored entries in ascending index
// order, exactly the order in which the dense kernels meet the same
// non-zero terms; the skipped terms are exact floating-point zero
// products, so sparse and dense results are bit-identical (the golden
// and property tests pin this).
type SparseVector struct {
	Dim int
	Idx []int
	Val []float64
}

// SparseFromDense collects the non-zero entries of v.
func SparseFromDense(v Vector) SparseVector {
	s := SparseVector{Dim: len(v)}
	for i, x := range v {
		if x != 0 {
			s.Idx = append(s.Idx, i)
			s.Val = append(s.Val, x)
		}
	}
	return s
}

// SparseAll converts a batch of dense vectors (test/bench convenience).
func SparseAll(vs []Vector) []SparseVector {
	out := make([]SparseVector, len(vs))
	for i, v := range vs {
		out[i] = SparseFromDense(v)
	}
	return out
}

// NNZ returns the number of stored entries.
func (s SparseVector) NNZ() int { return len(s.Idx) }

// At returns component i (0 when not stored).
func (s SparseVector) At(i int) float64 {
	k := sort.SearchInts(s.Idx, i)
	if k < len(s.Idx) && s.Idx[k] == i {
		return s.Val[k]
	}
	return 0
}

// Dense materialises the full vector.
func (s SparseVector) Dense() Vector {
	v := NewVector(s.Dim)
	for k, i := range s.Idx {
		v[i] = s.Val[k]
	}
	return v
}

// Sort reorders the stored entries into ascending index order in place.
// Builders that append entries out of order (e.g. index key columns in
// key order) must call it before handing the vector to any kernel.
// Insertion sort: context vectors carry a handful of entries.
func (s SparseVector) Sort() {
	for k := 1; k < len(s.Idx); k++ {
		i, v := s.Idx[k], s.Val[k]
		l := k - 1
		for l >= 0 && s.Idx[l] > i {
			s.Idx[l+1], s.Val[l+1] = s.Idx[l], s.Val[l]
			l--
		}
		s.Idx[l+1], s.Val[l+1] = i, v
	}
}

// DotSparse returns v·s, touching only s's stored entries. The operand
// order per term (v element first) mirrors Vector.Dot for bit-identical
// accumulation.
func (v Vector) DotSparse(s SparseVector) float64 {
	if len(v) != s.Dim {
		panic(fmt.Sprintf("linalg: sparse dot dimension mismatch %d vs %d", len(v), s.Dim))
	}
	var out float64
	for k, i := range s.Idx {
		out += v[i] * s.Val[k]
	}
	return out
}

// AddScaledSparse adds alpha*s to v in place and returns v.
func (v Vector) AddScaledSparse(alpha float64, s SparseVector) Vector {
	if len(v) != s.Dim {
		panic(fmt.Sprintf("linalg: sparse axpy dimension mismatch %d vs %d", len(v), s.Dim))
	}
	for k, i := range s.Idx {
		v[i] += alpha * s.Val[k]
	}
	return v
}
