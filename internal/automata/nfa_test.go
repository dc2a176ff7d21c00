package automata

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// language enumerates L_n(N) by brute force; the reference oracle for the
// whole library's tests.
func language(n *NFA, length int) []string {
	var out []string
	w := make(Word, length)
	var rec func(i int)
	rec = func(i int) {
		if i == length {
			if n.Accepts(w) {
				out = append(out, n.Alphabet().FormatWord(w))
			}
			return
		}
		for a := 0; a < n.Alphabet().Size(); a++ {
			w[i] = a
			rec(i + 1)
		}
	}
	rec(0)
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

func TestAlphabet(t *testing.T) {
	al := NewAlphabet("x", "y", "z")
	if al.Size() != 3 {
		t.Fatalf("Size = %d", al.Size())
	}
	if s, ok := al.Symbol("y"); !ok || s != 1 {
		t.Errorf("Symbol(y) = %d,%v", s, ok)
	}
	if _, ok := al.Symbol("w"); ok {
		t.Error("Symbol(w) should be unknown")
	}
	if al.Name(2) != "z" {
		t.Errorf("Name(2) = %q", al.Name(2))
	}
	if got := al.FormatWord(al.WordOf("z", "x")); got != "zx" {
		t.Errorf("FormatWord = %q", got)
	}
}

func TestDuplicateAlphabetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate symbol should panic")
		}
	}()
	NewAlphabet("a", "a")
}

// TestParseWordInvertsFormatWord: ParseWord reads FormatWord's output
// back with multi-character names, takes the longest name that matches
// ("xy", not "x" then a failure at "y"), and rejects a string where no
// name matches.
func TestParseWordInvertsFormatWord(t *testing.T) {
	alpha := NewAlphabet("x", "xy", "z")
	for _, w := range []Word{{}, {0}, {1, 0, 2}, {2, 1, 1, 0}} {
		s := alpha.FormatWord(w)
		got, err := alpha.ParseWord(s)
		if err != nil {
			t.Fatalf("ParseWord(%q): %v", s, err)
		}
		if !slices.Equal(got, w) {
			t.Fatalf("ParseWord(%q) = %v, want %v", s, got, w)
		}
	}
	if got, err := alpha.ParseWord("xy"); err != nil || !slices.Equal(got, Word{1}) {
		t.Fatalf("ParseWord(\"xy\") = %v, %v; want [1] (longest match)", got, err)
	}
	if _, err := alpha.ParseWord("xzq"); err == nil || !strings.Contains(err.Error(), `"q"`) {
		t.Fatalf("ParseWord(\"xzq\"): error %v, want one naming the unmatched \"q\"", err)
	}
}

func TestBasicAcceptance(t *testing.T) {
	alpha := Binary()
	n := New(alpha, 3)
	n.SetStart(0)
	n.AddTransition(0, 0, 1)
	n.AddTransition(0, 1, 1)
	n.AddTransition(1, 1, 2)
	n.SetFinal(2, true)
	cases := []struct {
		w    Word
		want bool
	}{
		{Word{0, 1}, true},
		{Word{1, 1}, true},
		{Word{0, 0}, false},
		{Word{1}, false},
		{Word{}, false},
		{Word{0, 1, 1}, false},
	}
	for _, c := range cases {
		if got := n.Accepts(c.w); got != c.want {
			t.Errorf("Accepts(%v) = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestAddTransitionIdempotentAndSorted(t *testing.T) {
	n := New(Binary(), 4)
	n.AddTransition(0, 0, 3)
	n.AddTransition(0, 0, 1)
	n.AddTransition(0, 0, 3)
	n.AddTransition(0, 0, 2)
	got := n.Successors(0, 0)
	want := []int{1, 2, 3}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Successors = %v, want %v", got, want)
	}
	if n.NumTransitions() != 3 {
		t.Fatalf("NumTransitions = %d", n.NumTransitions())
	}
}

func TestEpsilonRemovalPreservesLanguage(t *testing.T) {
	alpha := Binary()
	// 0 -ε-> 1 -0-> 2(final), 0 -1-> 2, 2 -ε-> 3(final chain)
	n := New(alpha, 4)
	n.SetStart(0)
	n.AddEpsilon(0, 1)
	n.AddTransition(1, 0, 2)
	n.AddTransition(0, 1, 2)
	n.AddEpsilon(2, 3)
	n.AddTransition(3, 1, 3)
	n.SetFinal(3, true)

	free := RemoveEpsilon(n)
	if free.HasEpsilon() {
		t.Fatal("result still has ε-transitions")
	}
	for length := 0; length <= 4; length++ {
		// Reference: expand ε's by hand — L = (0|1)1* .
		var want []string
		w := make(Word, length)
		var rec func(i int)
		accepts := func(w Word) bool {
			if len(w) == 0 {
				return false
			}
			for _, b := range w[1:] {
				if b != 1 {
					return false
				}
			}
			return true
		}
		rec = func(i int) {
			if i == length {
				if accepts(w) {
					want = append(want, alpha.FormatWord(w))
				}
				return
			}
			for a := 0; a < 2; a++ {
				w[i] = a
				rec(i + 1)
			}
		}
		rec(0)
		sort.Strings(want)
		if got := language(free, length); !sameStrings(got, want) {
			t.Errorf("length %d: got %v want %v", length, got, want)
		}
	}
}

func TestEpsilonRemovalRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		m := 2 + rng.Intn(5)
		n := New(Binary(), m)
		n.SetStart(0)
		for q := 0; q < m; q++ {
			for a := 0; a < 2; a++ {
				if rng.Float64() < 0.3 {
					n.AddTransition(q, a, rng.Intn(m))
				}
			}
			if rng.Float64() < 0.25 {
				n.AddEpsilon(q, rng.Intn(m))
			}
			if rng.Float64() < 0.3 {
				n.SetFinal(q, true)
			}
		}
		free := RemoveEpsilon(n)
		// Compare against ε-closure-aware simulation of the original.
		for length := 0; length <= 4; length++ {
			want := epsLanguage(n, length)
			got := language(free, length)
			if !sameStrings(got, want) {
				t.Fatalf("trial %d length %d: got %v want %v\n%s", trial, length, got, want, MarshalString(free))
			}
		}
	}
}

// epsLanguage simulates an automaton with ε-transitions directly.
func epsLanguage(n *NFA, length int) []string {
	closure := func(set map[int]bool) map[int]bool {
		stack := make([]int, 0, len(set))
		for q := range set {
			stack = append(stack, q)
		}
		for len(stack) > 0 {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n.eps == nil {
				continue
			}
			for _, p := range n.eps[q] {
				if !set[p] {
					set[p] = true
					stack = append(stack, p)
				}
			}
		}
		return set
	}
	var out []string
	w := make(Word, length)
	var rec func(i int, cur map[int]bool)
	rec = func(i int, cur map[int]bool) {
		if i == length {
			for q := range cur {
				if n.final[q] {
					out = append(out, n.alpha.FormatWord(w))
					return
				}
			}
			return
		}
		for a := 0; a < n.alpha.Size(); a++ {
			next := map[int]bool{}
			for q := range cur {
				for _, p := range n.delta[q][a] {
					next[p] = true
				}
			}
			next = closure(next)
			if len(next) == 0 {
				continue
			}
			w[i] = a
			rec(i+1, next)
		}
	}
	rec(0, closure(map[int]bool{n.start: true}))
	sort.Strings(out)
	return out
}

func TestTrim(t *testing.T) {
	alpha := Binary()
	n := New(alpha, 5)
	n.SetStart(0)
	n.AddTransition(0, 0, 1)
	n.AddTransition(1, 1, 2)
	n.SetFinal(2, true)
	n.AddTransition(0, 1, 3) // 3 is a dead end
	n.AddTransition(4, 0, 2) // 4 is unreachable
	trimmed := Trim(n)
	if trimmed.NumStates() != 3 {
		t.Fatalf("trimmed states = %d, want 3", trimmed.NumStates())
	}
	if !sameStrings(language(trimmed, 2), language(n, 2)) {
		t.Fatal("trim changed the language")
	}
}

func TestTrimEmptyLanguage(t *testing.T) {
	n := New(Binary(), 3)
	n.SetStart(0)
	n.AddTransition(0, 0, 1)
	// no finals reachable
	n.SetFinal(2, true)
	trimmed := Trim(n)
	if got := language(trimmed, 2); len(got) != 0 {
		t.Fatalf("expected empty language, got %v", got)
	}
}

func TestSingleFinal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := Random(rng, Binary(), 2+rng.Intn(6), 0.3, 0.4)
		sf := SingleFinal(n)
		if len(sf.Finals()) != 1 {
			t.Fatalf("SingleFinal produced %d finals", len(sf.Finals()))
		}
		// SingleFinal guarantees agreement for lengths ≥ 1 only.
		for length := 1; length <= 4; length++ {
			if !sameStrings(language(sf, length), language(n, length)) {
				t.Fatalf("trial %d: SingleFinal changed language at length %d", trial, length)
			}
		}
	}
}

func TestUnionIntersectReverse(t *testing.T) {
	alpha := Binary()
	a := Chain(alpha, Word{0, 1}) // accepts 01
	b := Chain(alpha, Word{1, 1}) // accepts 11
	u := Union(a, b)
	if got := language(u, 2); !sameStrings(got, []string{"01", "11"}) {
		t.Fatalf("union language = %v", got)
	}
	x := Intersect(u, b)
	if got := language(x, 2); !sameStrings(got, []string{"11"}) {
		t.Fatalf("intersect language = %v", got)
	}
	r := Reverse(a)
	if got := language(r, 2); !sameStrings(got, []string{"10"}) {
		t.Fatalf("reverse language = %v", got)
	}
}

func TestUnionIntersectRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		a := Random(rng, Binary(), 2+rng.Intn(4), 0.3, 0.4)
		b := Random(rng, Binary(), 2+rng.Intn(4), 0.3, 0.4)
		u := Union(a, b)
		x := Intersect(a, b)
		for length := 0; length <= 4; length++ {
			la, lb := language(a, length), language(b, length)
			set := map[string]bool{}
			for _, s := range la {
				set[s] = true
			}
			var wantU []string
			wantU = append(wantU, la...)
			for _, s := range lb {
				if !set[s] {
					wantU = append(wantU, s)
				}
			}
			sort.Strings(wantU)
			if got := language(u, length); !sameStrings(got, wantU) {
				t.Fatalf("trial %d: union at %d: got %v want %v", trial, length, got, wantU)
			}
			var wantX []string
			for _, s := range lb {
				if set[s] {
					wantX = append(wantX, s)
				}
			}
			sort.Strings(wantX)
			if got := language(x, length); !sameStrings(got, wantX) {
				t.Fatalf("trial %d: intersect at %d: got %v want %v", trial, length, got, wantX)
			}
		}
	}
}

func TestReverseRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := Random(rng, Binary(), 2+rng.Intn(5), 0.3, 0.4)
		r := Reverse(n)
		for length := 0; length <= 4; length++ {
			want := language(n, length)
			for i := range want {
				want[i] = reverseString(want[i])
			}
			sort.Strings(want)
			if got := language(r, length); !sameStrings(got, want) {
				t.Fatalf("trial %d length %d: got %v want %v", trial, length, got, want)
			}
		}
	}
}

func reverseString(s string) string {
	b := []byte(s)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}

func TestAcceptingRuns(t *testing.T) {
	n := AmbiguityGap(3)
	zero := Word{0, 0, 0}
	runs := n.AcceptingRuns(zero)
	// chain contributes 1 run, ladder contributes 2^(depth-1)*... for depth 3:
	// start -> {l1a,l1b} -> {l2a,l2b} -> final: 2*2 = 4 ladder runs + 1 chain.
	if len(runs) != 5 {
		t.Fatalf("runs(000) = %d, want 5", len(runs))
	}
	one := Word{1, 1, 1}
	if got := len(n.AcceptingRuns(one)); got != 1 {
		t.Fatalf("runs(111) = %d, want 1", got)
	}
}

func TestReachableCoReachable(t *testing.T) {
	n := New(Binary(), 4)
	n.SetStart(0)
	n.AddTransition(0, 0, 1)
	n.AddTransition(1, 0, 2)
	n.SetFinal(2, true)
	// state 3 isolated
	r := n.Reachable()
	if !r.Has(0) || !r.Has(1) || !r.Has(2) || r.Has(3) {
		t.Errorf("Reachable = %v", r)
	}
	c := n.CoReachable()
	if !c.Has(0) || !c.Has(1) || !c.Has(2) || c.Has(3) {
		t.Errorf("CoReachable = %v", c)
	}
}

func TestPaperExample(t *testing.T) {
	n, length := PaperExample()
	if !IsUnambiguous(n) {
		t.Fatal("paper example should be unambiguous")
	}
	got := language(n, length)
	want := []string{"aaa", "aab", "bba", "bbb"}
	if !sameStrings(got, want) {
		t.Fatalf("L_3 = %v, want %v", got, want)
	}
}
