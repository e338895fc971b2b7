package main

import (
	"math"
	"testing"

	"dbabandits/internal/env"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 19, ok: false},
		{n: 20, want: 50, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 199, want: 90, ok: true},
		{n: 200, want: 95, ok: true},
		{n: 999, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, got, c.n-rank(c.n, got))
		}
	}
	if supports(199, 95) || !supports(200, 95) {
		t.Error("p95 needs at least 200 samples")
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	s := make([]float64, 200)
	for i := range s {
		s[len(s)-1-i] = float64(i + 1) // descending: percentile must sort
	}
	if got := percentile(s, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := median(s); got != 100 {
		t.Errorf("median of 1..200 = %v, want 100", got)
	}
	if s[0] != 200 {
		t.Error("percentile reordered its input")
	}
}

// smallCell is a TPC-DS ad-hoc cell shrunk to test size.
func smallCell(t *testing.T) *env.Environment {
	t.Helper()
	e, err := env.New(env.Options{
		Benchmark:     "tpcds",
		Regime:        env.Random,
		MaxStoredRows: 400,
		Rounds:        3,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The mirror loop must reproduce env.RunPolicy bit for bit, and the
// comparison must flag a round perturbed by a single ulp.
func TestMirrorCheckFlagsPerturbedRound(t *testing.T) {
	e := smallCell(t)
	p, err := e.NewPolicy(env.MAB)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunPolicy(p)
	if err != nil {
		t.Fatal(err)
	}

	m := smallCell(t)
	mp, err := m.NewPolicy(env.MAB)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	ep := episode{ops: m.Seq.Rounds()}
	var lc layerCounters
	rounds, err := mirror(m, mp, tr, -1, &ep, &lc)
	if err != nil {
		t.Fatal(err)
	}
	ref := digests(res.Rounds)
	if n := mismatches(ref, digests(rounds)); n != 0 {
		t.Fatalf("mirror differs from env.RunPolicy in %d rounds", n)
	}

	perturbed := append([]env.RoundResult(nil), rounds...)
	perturbed[1].ExecSec = math.Nextafter(perturbed[1].ExecSec, math.Inf(1))
	if n := mismatches(ref, digests(perturbed)); n != 1 {
		t.Errorf("one perturbed round: %d mismatches, want 1", n)
	}
	if n := mismatches(ref, digests(rounds[:2])); n != 1 {
		t.Errorf("one missing round: %d mismatches, want 1", n)
	}

	// Every call the mirror makes into a module is a span under a round.
	lt := tr.totals()
	if got, want := lt.calls[kindRound], len(rounds); got != want {
		t.Errorf("%d round spans, want %d", got, want)
	}
	if lt.calls[kindExecute] != ep.statements || lt.calls[kindChoosePlan] != ep.statements {
		t.Errorf("execute/chooseplan spans %d/%d, want %d each",
			lt.calls[kindExecute], lt.calls[kindChoosePlan], ep.statements)
	}
}
