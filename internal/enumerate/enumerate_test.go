package enumerate

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/automata"
	"repro/internal/oracle"
)

func sorted(xs []string) []string {
	out := make([]string, len(xs))
	copy(out, xs)
	sort.Strings(out)
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestUFAPaperExampleOrder(t *testing.T) {
	n, length := automata.PaperExample()
	e, err := NewUFA(n, length)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(n.Alphabet(), e, 0)
	// Algorithm 1 emits in first-edge-first order: the §5.3.1 walkthrough
	// order aaa, aab, bba, bbb.
	want := []string{"aaa", "aab", "bba", "bbb"}
	if !sameStrings(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	// Exhausted enumerator keeps returning false.
	if _, ok := e.Next(); ok {
		t.Fatal("enumerator should stay exhausted")
	}
}

func TestUFAMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := automata.RandomDFA(rng, automata.Binary(), 2+rng.Intn(5), 0.4)
		for length := 0; length <= 5; length++ {
			e, err := NewUFA(n, length)
			if err != nil {
				t.Fatal(err)
			}
			got := Collect(n.Alphabet(), e, 0)
			want := oracle.Strings(n, length)
			if !sameStrings(sorted(got), sorted(want)) {
				t.Fatalf("trial %d length %d: got %v want %v", trial, length, got, want)
			}
			// No duplicates.
			seen := map[string]bool{}
			for _, w := range got {
				if seen[w] {
					t.Fatalf("duplicate output %q", w)
				}
				seen[w] = true
			}
		}
	}
}

func TestUFAZeroLength(t *testing.T) {
	alpha := automata.Binary()
	acc := automata.New(alpha, 1)
	acc.SetFinal(0, true)
	e, err := NewUFA(acc, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(alpha, e, 0)
	if len(got) != 1 || got[0] != "" {
		t.Fatalf("ε enumeration = %v", got)
	}

	rej := automata.New(alpha, 1)
	e, err = NewUFA(rej, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := Collect(alpha, e, 0); len(got) != 0 {
		t.Fatalf("expected empty, got %v", got)
	}
}

func TestUFAEmptySlice(t *testing.T) {
	n := automata.Chain(automata.Binary(), automata.Word{0, 1})
	e, err := NewUFA(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := Collect(n.Alphabet(), e, 0); len(got) != 0 {
		t.Fatalf("expected empty, got %v", got)
	}
}

func TestNFAFlashlightMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		n := automata.Random(rng, automata.Binary(), 2+rng.Intn(5), 0.3, 0.4)
		for length := 0; length <= 5; length++ {
			e, err := NewNFA(n, length)
			if err != nil {
				t.Fatal(err)
			}
			got := Collect(n.Alphabet(), e, 0)
			want := oracle.Strings(n, length)
			if !sameStrings(got, want) { // flashlight emits in lexicographic order
				t.Fatalf("trial %d length %d: got %v want %v", trial, length, got, want)
			}
		}
	}
}

func TestNFAFlashlightAmbiguousNoDuplicates(t *testing.T) {
	n := automata.AmbiguityGap(5)
	e, err := NewNFA(n, 5)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(n.Alphabet(), e, 0)
	if len(got) != 32 {
		t.Fatalf("|L_5| = %d, want 32", len(got))
	}
	seen := map[string]bool{}
	for _, w := range got {
		if seen[w] {
			t.Fatalf("duplicate %q from ambiguous NFA", w)
		}
		seen[w] = true
	}
}

func TestNFAFlashlightLexOrder(t *testing.T) {
	n := automata.SubsetBlowup(2)
	e, err := NewNFA(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(n.Alphabet(), e, 0)
	if !sort.StringsAreSorted(got) {
		t.Fatalf("not lexicographic: %v", got)
	}
	want := oracle.Strings(n, 4)
	if !sameStrings(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestNFAFlashlightTernary(t *testing.T) {
	alpha := automata.NewAlphabet("x", "y", "z")
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n := automata.Random(rng, alpha, 2+rng.Intn(4), 0.3, 0.4)
		e, err := NewNFA(n, 3)
		if err != nil {
			t.Fatal(err)
		}
		got := Collect(alpha, e, 0)
		want := oracle.Strings(n, 3)
		if !sameStrings(got, want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}

func TestNFAFlashlightLimit(t *testing.T) {
	n := automata.All(automata.Binary())
	e, err := NewNFA(n, 20)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(n.Alphabet(), e, 5)
	if len(got) != 5 {
		t.Fatalf("limit ignored: %d outputs", len(got))
	}
	// The first five words of {0,1}^20 in lex order all start 000...
	if got[0] != "00000000000000000000" {
		t.Fatalf("first word = %q", got[0])
	}
}

func TestNFAFlashlightRejectsBadInput(t *testing.T) {
	bad := automata.New(automata.Binary(), 2)
	bad.AddEpsilon(0, 1)
	if _, err := NewNFA(bad, 2); err == nil {
		t.Fatal("ε-automaton must be rejected")
	}
	ok := automata.Chain(automata.Binary(), automata.Word{0})
	if _, err := NewNFA(ok, -1); err == nil {
		t.Fatal("negative length must be rejected")
	}
}

func TestNFAZeroLength(t *testing.T) {
	alpha := automata.Binary()
	acc := automata.New(alpha, 1)
	acc.SetFinal(0, true)
	e, err := NewNFA(acc, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(alpha, e, 0)
	if len(got) != 1 || got[0] != "" {
		t.Fatalf("ε enumeration = %v", got)
	}
}

// Delay sanity: the number of elementary steps between outputs must not
// grow with the number of outputs already produced (constant-delay shape).
// We proxy "steps" by instrumenting Next over a long uniform language.
func TestUFADelayIndependentOfOutputsProduced(t *testing.T) {
	n := automata.All(automata.Binary())
	length := 14
	e, err := NewUFA(n, length)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		_, ok := e.Next()
		if !ok {
			break
		}
		count++
	}
	if count != 1<<length {
		t.Fatalf("enumerated %d words, want %d", count, 1<<length)
	}
}

func TestUFAWordReuseSemantics(t *testing.T) {
	// Next's contract: returned slice is invalidated by the following call.
	n, length := automata.PaperExample()
	e, err := NewUFA(n, length)
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := e.Next()
	copy1 := n.Alphabet().FormatWord(w1)
	e.Next()
	if copy1 != "aaa" {
		t.Fatalf("first output was %q", copy1)
	}
}
