package main

import (
	"encoding/json"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// candidatePercentiles are the percentiles tailPercentile chooses from,
// highest first.
var candidatePercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples. The slack absorbs decimal percentiles such as 99.9
// that have no exact binary form.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	return k
}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples above it, and false when none does.
func tailPercentile(n int) (float64, bool) {
	for _, p := range candidatePercentiles {
		if n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// supports reports whether n samples can carry percentile p under the
// minBeyond rule.
func supports(n int, p float64) bool {
	top, ok := tailPercentile(n)
	return ok && top >= p
}

// percentile returns the nearest-rank percentile p of the samples; it
// sorts a copy, so the caller's order is kept.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is the 50th percentile.
func median(samples []float64) float64 { return percentile(samples, 50) }

// digests encodes each per-round or per-window result on its own, so
// two runs can be compared operation by operation. JSON keeps every bit
// of a float64 (shortest round-trip form), so equal digests mean
// bit-identical results.
func digests[T any](results []T) []string {
	out := make([]string, len(results))
	for i, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			// A result that cannot be encoded cannot match anything.
			out[i] = "unencodable: " + err.Error()
			continue
		}
		out[i] = string(b)
	}
	return out
}

// mismatches counts the operations of got that differ from ref, plus
// every operation one side has and the other lacks.
func mismatches(ref, got []string) int {
	n := len(ref)
	if len(got) > n {
		n = len(got)
	}
	bad := 0
	for i := 0; i < n; i++ {
		if i >= len(ref) || i >= len(got) || ref[i] != got[i] {
			bad++
		}
	}
	return bad
}
