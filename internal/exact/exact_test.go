package exact

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/automata"
	"repro/internal/oracle"
)

func TestCountUFAPaperExample(t *testing.T) {
	n, length := automata.PaperExample()
	if got := CountUFA(n, length); got.Cmp(big.NewInt(4)) != 0 {
		t.Fatalf("CountUFA = %v, want 4", got)
	}
}

func TestCountUFAMatchesBruteOnDFAs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := automata.RandomDFA(rng, automata.Binary(), 2+rng.Intn(5), 0.4)
		length := rng.Intn(7)
		return CountUFA(n, length).Cmp(oracle.Count(n, length)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCountUFARejectsNothingButOvercountsAmbiguous(t *testing.T) {
	// Sanity: on an ambiguous automaton the path count strictly exceeds the
	// string count — the failure mode that motivates the FPRAS.
	n := automata.AmbiguityGap(4)
	paths := CountUFA(n, 4)
	strings := oracle.Count(n, 4)
	if paths.Cmp(strings) <= 0 {
		t.Fatalf("paths %v should exceed strings %v", paths, strings)
	}
}

func TestCountNFAMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := automata.Random(rng, automata.Binary(), 2+rng.Intn(5), 0.3, 0.4)
		length := rng.Intn(7)
		got, err := CountNFA(n, length, 0)
		if err != nil {
			return false
		}
		return got.Cmp(oracle.Count(n, length)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCountNFATernaryAlphabet(t *testing.T) {
	alpha := automata.NewAlphabet("a", "b", "c")
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := automata.Random(rng, alpha, 2+rng.Intn(4), 0.3, 0.4)
		length := rng.Intn(5)
		got, err := CountNFA(n, length, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(oracle.Count(n, length)) != 0 {
			t.Fatalf("trial %d: mismatch", trial)
		}
	}
}

func TestCountNFASubsetBound(t *testing.T) {
	n := automata.SubsetBlowup(18)
	if _, err := CountNFA(n, 40, 1024); err == nil {
		t.Fatal("expected subset blow-up error")
	}
	// And with a generous bound the family's count is known in closed form:
	// |L_n| = 2^n − 2^(k−1) for n ≥ k.
	got, err := CountNFA(automata.SubsetBlowup(3), 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(60)) != 0 {
		t.Fatalf("SubsetBlowup(3) at n=6: %v, want 60", got)
	}
}

func TestCountNFAEmptyAndEpsilon(t *testing.T) {
	alpha := automata.Binary()
	n := automata.Chain(alpha, automata.Word{0, 1})
	got, err := CountNFA(n, 5, 0)
	if err != nil || got.Sign() != 0 {
		t.Fatalf("count = %v err = %v, want 0", got, err)
	}
	got, err = CountNFA(n, 0, 0)
	if err != nil || got.Sign() != 0 {
		t.Fatalf("ε count = %v, want 0", got)
	}
	eps := automata.New(alpha, 1)
	eps.SetFinal(0, true)
	got, err = CountNFA(eps, 0, 0)
	if err != nil || got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("ε-accepting count = %v, want 1", got)
	}
	if got := CountUFA(eps, -1); got.Sign() != 0 {
		t.Fatal("negative length should count 0")
	}
}

func TestCountLargeLengthPolynomial(t *testing.T) {
	// The UFA counter must handle n in the thousands without trouble —
	// that's the whole point of being in FP (§5.3.2).
	n := automata.SubsetBlowup(1) // "contains a 1": |L_n| = 2^n − 1
	dfa, ok := automata.Determinize(n, 0)
	if !ok {
		t.Fatal("determinize failed")
	}
	got := CountUFA(dfa, 4096)
	want := new(big.Int).Lsh(big.NewInt(1), 4096)
	want.Sub(want, big.NewInt(1))
	if got.Cmp(want) != 0 {
		t.Fatalf("2^4096−1 expected, got bit length %d", got.BitLen())
	}
}
