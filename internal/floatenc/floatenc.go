// Package floatenc encodes float64 slices as base64 strings of their
// little-endian IEEE-754 bits. Checkpoints must restore tuner state
// bit for bit — a resumed session is required to produce byte-identical
// recommendations — so the encoding is exact by construction (no
// decimal round-trip involved) and compact enough for the dense
// Cholesky factor of the ridge regression (8 bytes per value before
// base64).
package floatenc

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
)

// Encode packs vs into a base64 string of little-endian IEEE-754 bits.
// Encode(nil) returns "" and Decode("") returns nil, so empty slices
// round-trip through JSON omitempty fields.
func Encode(vs []float64) string {
	if len(vs) == 0 {
		return ""
	}
	buf := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// Decode is the inverse of Encode.
func Decode(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("floatenc: %w", err)
	}
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("floatenc: %d bytes is not a whole number of float64s", len(buf))
	}
	out := make([]float64, len(buf)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out, nil
}

// DecodeLen decodes s and verifies the result holds exactly want
// values — the shape check every snapshot consumer needs before
// trusting a checkpoint field.
func DecodeLen(s string, want int) ([]float64, error) {
	vs, err := Decode(s)
	if err != nil {
		return nil, err
	}
	if len(vs) != want {
		return nil, fmt.Errorf("floatenc: decoded %d values, want %d", len(vs), want)
	}
	return vs, nil
}
