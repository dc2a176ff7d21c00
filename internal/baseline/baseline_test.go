package baseline

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/exact"
	"repro/internal/stats"
)

func TestMonteCarloUnbiasedOnUFA(t *testing.T) {
	// On an unambiguous automaton every string has P_x = 1, so the MC
	// estimator returns exactly P = |L_n| with zero variance.
	n, length := automata.PaperExample()
	enc := automata.BinaryEncode(n)
	rng := rand.New(rand.NewSource(3))
	est, err := MonteCarloPaths(enc.Encoded, enc.EncodedLength(length), 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := est.Float64()
	if got != 4 {
		t.Fatalf("MC on UFA = %f, want exactly 4", got)
	}
}

func TestMonteCarloApproximatesModestAmbiguity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := automata.SubsetBlowup(3)
	length := 8
	want, err := exact.CountNFA(n, length, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantF, _ := new(big.Float).SetInt(want).Float64()
	est, err := MonteCarloPaths(n, length, 20000, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := est.Float64()
	if re := stats.RelErr(got, wantF); re > 0.2 {
		t.Fatalf("MC estimate %f vs %f (rel err %f)", got, wantF, re)
	}
}

func TestMonteCarloFailsOnAmbiguityGap(t *testing.T) {
	// The §6.1 argument: with a width-4 ladder, path mass concentrates
	// exponentially on the single string 0^depth (4^13 ≈ 6.7·10⁷ runs
	// versus 2^14−1 light paths), so 500 path samples almost surely see
	// only 0^depth and grossly underestimate |L_n| = 2^depth.
	depth := 14
	n := automata.AmbiguityGapWide(depth, 4)
	rng := rand.New(rand.NewSource(7))
	est, err := MonteCarloPaths(n, depth, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := est.Float64()
	want := float64(int(1) << depth)
	if got > want/10 {
		t.Fatalf("MC unexpectedly accurate on gap family: %f vs %f", got, want)
	}
}

func TestMonteCarloOKOnNarrowGap(t *testing.T) {
	// Contrast case: with a width-2 ladder the weights stay bounded and the
	// estimator is fine — the failure really is about weight concentration.
	depth := 14
	n := automata.AmbiguityGap(depth)
	rng := rand.New(rand.NewSource(8))
	est, err := MonteCarloPaths(n, depth, 4000, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := est.Float64()
	want := float64(int(1) << depth)
	if re := stats.RelErr(got, want); re > 0.2 {
		t.Fatalf("MC on narrow gap: %f vs %f (rel err %f)", got, want, re)
	}
}

func TestMonteCarloEmptyAndErrors(t *testing.T) {
	empty := automata.Chain(automata.Binary(), automata.Word{0, 1})
	rng := rand.New(rand.NewSource(9))
	est, err := MonteCarloPaths(empty, 7, 10, rng)
	if err != nil || est.Sign() != 0 {
		t.Fatalf("empty language: %v %v", est, err)
	}
	if _, err := MonteCarloPaths(empty, 2, 0, rng); err == nil {
		t.Error("zero samples should error")
	}
	eps := automata.New(automata.Binary(), 2)
	eps.AddEpsilon(0, 1)
	if _, err := MonteCarloPaths(eps, 2, 5, rng); err == nil {
		t.Error("ε-automaton should error")
	}
}
