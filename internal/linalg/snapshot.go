package linalg

import (
	"fmt"
	"math"

	"dbabandits/internal/floatenc"
)

// RidgeSnapshot is the serialisable state of a CholState: everything a
// fresh process needs to continue the regression bit for bit. Float
// payloads are packed via floatenc (base64 of the IEEE-754 bits), so
// no decimal round-trip can perturb the restored factor; a restored
// state's every subsequent Theta/width/Observe result is byte-identical
// to the uninterrupted state's. The theta memo is deliberately not
// persisted — it is a pure function of the persisted state and is
// recomputed (to the same bits) on first use.
type RidgeSnapshot struct {
	Dim     int
	Lambda  float64
	Updates int
	// B is the response accumulator (floatenc, Dim values).
	B string
	// L is the lower-triangular Cholesky factor of V (floatenc, Dim*Dim
	// values, row-major).
	L string
}

// Snapshot returns the serialisable state; RestoreCholState rebuilds it.
func (cs *CholState) Snapshot() *RidgeSnapshot {
	return &RidgeSnapshot{
		Dim:     cs.Dim,
		Lambda:  cs.Lambda,
		Updates: cs.updates,
		B:       floatenc.Encode(cs.B),
		L:       floatenc.Encode(cs.L.Data),
	}
}

// RestoreCholState rebuilds a state from its snapshot, positioned
// exactly where the snapshotted state was: same factor, same counters.
// The restored state's subsequent results are bit-identical to the
// original's.
//
// The factor is validated before use, because a corrupt one would not
// fail later — it would silently steer every score. L must be lower
// triangular with a strictly positive diagonal, and every entry of L
// and B must be finite.
func RestoreCholState(s *RidgeSnapshot) (*CholState, error) {
	if s == nil {
		return nil, fmt.Errorf("linalg: nil ridge snapshot")
	}
	if s.Dim <= 0 || !(s.Lambda > 0) || math.IsInf(s.Lambda, 0) {
		return nil, fmt.Errorf("linalg: ridge snapshot with dim %d, lambda %g", s.Dim, s.Lambda)
	}
	b, err := floatenc.DecodeLen(s.B, s.Dim)
	if err != nil {
		return nil, fmt.Errorf("linalg: ridge snapshot B: %w", err)
	}
	l, err := floatenc.DecodeLen(s.L, s.Dim*s.Dim)
	if err != nil {
		return nil, fmt.Errorf("linalg: ridge snapshot L: %w", err)
	}
	for i, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("linalg: ridge snapshot B[%d] = %g is not finite", i, v)
		}
	}
	n := s.Dim
	for i := 0; i < n; i++ {
		for j, v := range l[i*n : (i+1)*n] {
			switch {
			case math.IsNaN(v) || math.IsInf(v, 0):
				return nil, fmt.Errorf("linalg: ridge snapshot L[%d][%d] = %g is not finite", i, j, v)
			case j == i && v <= 0:
				return nil, fmt.Errorf("linalg: ridge snapshot L[%d][%d] = %g: factor diagonal must be positive", i, j, v)
			case j > i && v != 0:
				return nil, fmt.Errorf("linalg: ridge snapshot L[%d][%d] = %g: factor must be lower triangular", i, j, v)
			}
		}
	}
	cs := NewCholState(s.Dim, s.Lambda)
	copy(cs.L.Data, l)
	copy(cs.B, b)
	cs.rescanProfile()
	cs.updates = s.Updates
	return cs, nil
}
