package env

import (
	"encoding/json"
	"math/rand"
	"testing"

	"dbabandits/internal/index"
	"dbabandits/internal/policy"
)

func resumeEnv(t *testing.T, rounds int) *Environment {
	t.Helper()
	opts := Options{
		Benchmark:     "ssb",
		Regime:        Static,
		ScaleFactor:   10,
		MaxStoredRows: 1500,
		Rounds:        rounds,
		Seed:          7,
	}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCheckpointResumeEveryPolicy is the checkpoint round-trip property
// test: for EVERY registered policy, snapshot at a (seeded-)random
// round boundary, restore into a freshly built policy over a freshly
// built environment, resume over the remaining span, and require the
// concatenated RoundResults byte-identical to an uninterrupted golden
// run. This is the contract every future policy inherits the moment it
// registers: implementing Snapshotter means resumable, and resumable
// means byte-identical. The cases sit under a "chol" subtest, named
// after the factored ridge core whose checkpoint the MAB policy
// round-trips.
func TestCheckpointResumeEveryPolicy(t *testing.T) {
	const total = 6
	rng := rand.New(rand.NewSource(20260808))
	t.Run("chol", func(t *testing.T) {
		for _, name := range policy.Names() {
			cut := 1 + rng.Intn(total-1)
			t.Run(name, func(t *testing.T) {
				eA := resumeEnv(t, total)
				golden, err := eA.Run(TunerKind(name))
				if err != nil {
					t.Fatal(err)
				}

				// Head: drive rounds 1..cut, then checkpoint at the
				// round boundary.
				eB := resumeEnv(t, total)
				p1, err := policy.New(name, eB, eB.policyParams())
				if err != nil {
					t.Fatal(err)
				}
				rec1 := &cfgRecorder{Policy: p1, cfg: index.NewConfig()}
				head, err := eB.RunPolicySpan(rec1, Span{From: 1, To: cut})
				if err != nil {
					t.Fatal(err)
				}
				snap, ok := p1.(policy.Snapshotter)
				if !ok {
					t.Fatalf("policy %q does not implement Snapshotter", name)
				}
				state, err := snap.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				cfgDefs := rec1.cfg.Defs()
				p1.Close()

				// Tail: fresh environment, fresh policy, restore, resume.
				eC := resumeEnv(t, total)
				p2, err := policy.New(name, eC, eC.policyParams())
				if err != nil {
					t.Fatal(err)
				}
				defer p2.Close()
				if err := p2.(policy.Snapshotter).Restore(state); err != nil {
					t.Fatal(err)
				}
				tail, err := eC.RunPolicySpan(p2, Span{
					From:        cut + 1,
					To:          total,
					StartConfig: index.ConfigFromDefs(cfgDefs),
				})
				if err != nil {
					t.Fatal(err)
				}

				got := append(append([]RoundResult(nil), head.Rounds...), tail.Rounds...)
				ja, _ := json.Marshal(golden.Rounds)
				jb, _ := json.Marshal(got)
				if string(ja) != string(jb) {
					t.Fatalf("%s resumed at round %d diverged from uninterrupted run:\n%s\nvs\n%s",
						name, cut, jb, ja)
				}
			})
		}
	})
}
