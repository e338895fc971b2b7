package mab

import (
	"math"

	"dbabandits/internal/linalg"
)

// C2UCB is the contextual combinatorial UCB bandit (Qin, Chen & Zhu,
// SDM'14) with the corrected regret analysis of Oetomo et al. It keeps
// one ridge regression shared across all arms: all learned knowledge
// lives in theta, so newly generated arms are scored without ever having
// been played — the property that makes workload-driven dynamic arms
// viable (Section III).
//
// Contexts are sparse: an index's context has at most one non-zero per
// key column plus three derived components, so scoring and updating route
// through the sparse ridge kernels (bit-identical to the dense path — see
// internal/linalg).
//
// The ridge regression is a linalg.CholState, the Cholesky factor of
// V maintained by rank-1 updates. Scoring goes through its memoised
// theta and batched width kernel, so theta is derived at most once per
// state change and the per-arm work is one dot product plus one share
// of a blocked triangular solve.
type C2UCB struct {
	state *linalg.CholState
	// Alpha returns the exploration-boost factor for round t (1-based).
	Alpha func(t int) float64
	round int

	// rewardScale tracks the magnitude of observed rewards so the
	// exploration boost stays commensurate with the reward units
	// (simulated seconds here, where queries range from milliseconds to
	// hundreds of seconds).
	rewardScale float64
}

// DefaultAlpha is the exploration schedule used by the experiments: a
// slowly growing sqrt-log factor as in the C2UCB analysis.
func DefaultAlpha(t int) float64 {
	return 0.45 * math.Sqrt(math.Log(float64(t)+2))
}

// NewC2UCB creates the bandit with context dimension dim and ridge
// regularisation lambda. A nil alpha uses DefaultAlpha.
func NewC2UCB(dim int, lambda float64, alpha func(int) float64) *C2UCB {
	if alpha == nil {
		alpha = DefaultAlpha
	}
	return &C2UCB{
		state:       linalg.NewCholState(dim, lambda),
		Alpha:       alpha,
		rewardScale: 1,
	}
}

// BeginRound advances the round counter (Algorithm 1, line 3).
func (b *C2UCB) BeginRound() { b.round++ }

// Round returns the current 1-based round.
func (b *C2UCB) Round() int { return b.round }

// Scores computes the UCB score for every context (Algorithm 1, line 8):
//
//	r_hat(i) = theta' x(i) + alpha_t * sqrt(x(i)' V^{-1} x(i))
//
// The widths for the whole candidate batch are computed in one blocked
// pass over the factor and theta comes from the ridge memo, so no
// per-arm call re-derives either; each entry is bit-identical to the
// per-arm theta.DotSparse + ConfidenceWidthSparse form.
func (b *C2UCB) Scores(contexts []linalg.SparseVector) []float64 {
	out := make([]float64, len(contexts))
	b.ScoresInto(contexts, out)
	return out
}

// ScoresInto is Scores into a caller-supplied slice (len(out) must equal
// len(contexts)) — the tuner's round loop reuses one scores buffer across
// rounds. Results are byte-identical to Scores.
func (b *C2UCB) ScoresInto(contexts []linalg.SparseVector, out []float64) {
	theta := b.state.Theta()
	alpha := b.Alpha(b.round) * b.rewardScale
	b.state.ConfidenceWidthBatch(contexts, out)
	for i, x := range contexts {
		out[i] = theta.DotSparse(x) + alpha*out[i]
	}
}

// ExpectedScores returns the exploitation-only point estimates theta'x,
// used by tests and diagnostics.
func (b *C2UCB) ExpectedScores(contexts []linalg.SparseVector) []float64 {
	theta := b.state.Theta()
	out := make([]float64, len(contexts))
	for i, x := range contexts {
		out[i] = theta.DotSparse(x)
	}
	return out
}

// Update folds in the semi-bandit feedback for the played arms
// (Algorithm 1, lines 11-13): one (context, reward) pair per arm in the
// super arm.
func (b *C2UCB) Update(contexts []linalg.SparseVector, rewards []float64) {
	for i, x := range contexts {
		r := rewards[i]
		b.state.ObserveSparse(x, r)
		if a := math.Abs(r); a > b.rewardScale {
			// Grow quickly, decay slowly: scale tracks the largest
			// observed reward magnitude with a light decay so one early
			// outlier does not pin exploration forever.
			b.rewardScale = a
		}
	}
	b.rewardScale *= 0.995
	if b.rewardScale < 1 {
		b.rewardScale = 1
	}
}

// Forget discounts learned knowledge toward the prior by gamma in [0,1];
// the tuner calls it scaled by detected workload-shift intensity.
func (b *C2UCB) Forget(gamma float64) { b.state.Forget(gamma) }

// Theta exposes the current coefficient estimate (diagnostics/tests).
// The vector is owned by the ridge state; callers must not mutate it.
func (b *C2UCB) Theta() linalg.Vector { return b.state.Theta() }

// Dim returns the context dimensionality.
func (b *C2UCB) Dim() int { return b.state.Dim }
