package automata

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsUnambiguousOnKnownCases(t *testing.T) {
	alpha := Binary()

	dfa := Chain(alpha, Word{0, 1, 0})
	if !IsUnambiguous(dfa) {
		t.Error("chain DFA must be unambiguous")
	}

	gap := AmbiguityGap(3)
	if IsUnambiguous(gap) {
		t.Error("AmbiguityGap must be ambiguous")
	}

	blow := SubsetBlowup(3)
	if IsUnambiguous(blow) {
		// Strings with several witnessing 1s have several runs.
		t.Error("SubsetBlowup must be ambiguous")
	}

	paper, _ := PaperExample()
	if !IsUnambiguous(paper) {
		t.Error("paper example must be unambiguous")
	}
}

// subsetCount is a tiny inline exact #NFA by subset construction, used as a
// reference inside this package (the full version lives in internal/exact,
// which cannot be imported here without a cycle).
func subsetCount(n *NFA, length int) *big.Int {
	type cell struct {
		set   map[int]bool
		count *big.Int
	}
	key := func(set map[int]bool) string {
		b := make([]byte, n.NumStates())
		for q := range set {
			b[q] = 1
		}
		return string(b)
	}
	start := map[int]bool{n.start: true}
	cur := map[string]*cell{key(start): {set: start, count: big.NewInt(1)}}
	for t := 0; t < length; t++ {
		next := map[string]*cell{}
		for _, c := range cur {
			for a := 0; a < n.alpha.Size(); a++ {
				succ := map[int]bool{}
				for q := range c.set {
					for _, p := range n.delta[q][a] {
						succ[p] = true
					}
				}
				if len(succ) == 0 {
					continue
				}
				k := key(succ)
				if e, ok := next[k]; ok {
					e.count.Add(e.count, c.count)
				} else {
					next[k] = &cell{set: succ, count: new(big.Int).Set(c.count)}
				}
			}
		}
		cur = next
	}
	total := big.NewInt(0)
	for _, c := range cur {
		for q := range c.set {
			if n.final[q] {
				total.Add(total, c.count)
				break
			}
		}
	}
	return total
}

func TestIsUnambiguousAgainstCountingReference(t *testing.T) {
	// Reference: N is ambiguous iff at some length ℓ ≤ 2m²+2 the number of
	// accepting paths strictly exceeds the number of accepted strings (the
	// shortest doubly-run string has length < 2m² by the product-automaton
	// argument).
	rng := rand.New(rand.NewSource(42))
	ambiguousSeen, unambSeen := 0, 0
	for trial := 0; trial < 80; trial++ {
		n := Trim(Random(rng, Binary(), 2+rng.Intn(4), 0.25, 0.4))
		fast := IsUnambiguous(n)
		slow := true
		bound := 2*n.NumStates()*n.NumStates() + 2
		for l := 0; l <= bound; l++ {
			if CountPaths(n, l).Cmp(subsetCount(n, l)) > 0 {
				slow = false
				break
			}
		}
		if fast != slow {
			t.Fatalf("trial %d: IsUnambiguous=%v counting=%v\n%s", trial, fast, slow, MarshalString(n))
		}
		if fast {
			unambSeen++
		} else {
			ambiguousSeen++
		}
	}
	if ambiguousSeen == 0 || unambSeen == 0 {
		t.Fatalf("test corpus not diverse: %d ambiguous, %d unambiguous", ambiguousSeen, unambSeen)
	}
}

func TestCountAcceptingRuns(t *testing.T) {
	n := AmbiguityGap(4)
	// 0000 has 1 (chain) + 2^3 (ladder) = 9 runs.
	if got := CountAcceptingRuns(n, Word{0, 0, 0, 0}); got.Cmp(big.NewInt(9)) != 0 {
		t.Errorf("runs(0000) = %v, want 9", got)
	}
	if got := CountAcceptingRuns(n, Word{1, 0, 0, 0}); got.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("runs(1000) = %v, want 1", got)
	}
	if got := CountAcceptingRuns(n, Word{0, 0, 0}); got.Sign() != 0 {
		t.Errorf("runs of wrong length = %v, want 0", got)
	}
}

func TestCountPathsMatchesRunSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := Random(rng, Binary(), 2+rng.Intn(4), 0.3, 0.4)
		length := 1 + rng.Intn(4)
		total := CountPaths(n, length)
		sum := big.NewInt(0)
		w := make(Word, length)
		var rec func(i int)
		rec = func(i int) {
			if i == length {
				sum.Add(sum, CountAcceptingRuns(n, w))
				return
			}
			for a := 0; a < 2; a++ {
				w[i] = a
				rec(i + 1)
			}
		}
		rec(0)
		return total.Cmp(sum) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAmbiguity(t *testing.T) {
	gap := AmbiguityGap(4)
	if got := MaxAmbiguity(gap, 4); got.Cmp(big.NewInt(9)) != 0 {
		t.Errorf("MaxAmbiguity = %v, want 9", got)
	}
	dfa := Chain(Binary(), Word{1, 0})
	if got := MaxAmbiguity(dfa, 2); got.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("MaxAmbiguity(dfa) = %v, want 1", got)
	}
}

func TestCountPathsAmbiguityGapShape(t *testing.T) {
	// |L_depth| = 2^depth but paths ≈ 2^depth + 2^(depth-1)·2 - 1; check the
	// ladder really doubles the path mass without changing the language.
	for depth := 2; depth <= 8; depth++ {
		n := AmbiguityGap(depth)
		paths := CountPaths(n, depth)
		lang := big.NewInt(1)
		lang.Lsh(lang, uint(depth))
		if paths.Cmp(lang) <= 0 {
			t.Errorf("depth %d: paths %v should exceed strings %v", depth, paths, lang)
		}
	}
}

// referenceIsUnambiguous is the product test IsUnambiguous replaced,
// which builds m² predecessor lists and has no deterministic shortcut.
func referenceIsUnambiguous(n *NFA) bool {
	m := n.NumStates()
	id := func(p, q int) int { return p*m + q }
	succ := func(v int, f func(w int)) {
		p, q := v/m, v%m
		for a := 0; a < n.alpha.Size(); a++ {
			for _, pp := range n.delta[p][a] {
				for _, qq := range n.delta[q][a] {
					f(id(pp, qq))
				}
			}
		}
	}
	reach := map[int]bool{id(n.start, n.start): true}
	stack := []int{id(n.start, n.start)}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		succ(v, func(w int) {
			if !reach[w] {
				reach[w] = true
				stack = append(stack, w)
			}
		})
	}
	preds := make([][]int, m*m)
	for v := range reach {
		succ(v, func(w int) { preds[w] = append(preds[w], v) })
	}
	co := map[int]bool{}
	for p := 0; p < m; p++ {
		for q := 0; q < m; q++ {
			if n.final[p] && n.final[q] {
				co[id(p, q)] = true
				stack = append(stack, id(p, q))
			}
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range preds[v] {
			if !co[u] {
				co[u] = true
				stack = append(stack, u)
			}
		}
	}
	for v := range reach {
		if v/m != v%m && co[v] {
			return false
		}
	}
	return true
}

// TestIsUnambiguousMatchesProductReference compares IsUnambiguous with the
// full product test on untrimmed random automata: DFAs (the shortcut),
// sparse NFAs (mostly unambiguous) and dense ones (mostly ambiguous).
func TestIsUnambiguousMatchesProductReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	seen := map[bool]int{}
	for trial := 0; trial < 600; trial++ {
		alpha := NewAlphabet([]string{"a", "b", "c"}[:1+rng.Intn(3)]...)
		m := 1 + rng.Intn(9)
		var n *NFA
		switch trial % 3 {
		case 0:
			n = RandomDFA(rng, alpha, m, 0.4)
		case 1:
			n = Random(rng, alpha, m, 0.12, 0.3)
		default:
			n = Random(rng, alpha, m, 0.35, 0.3)
		}
		got, want := IsUnambiguous(n), referenceIsUnambiguous(n)
		if got != want {
			t.Fatalf("trial %d: IsUnambiguous=%v, product reference=%v\n%s", trial, got, want, MarshalString(n))
		}
		if !IsDeterministic(n) {
			seen[got]++
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("nondeterministic corpus not diverse: %v", seen)
	}
}

// TestIsUnambiguousDFAAllocatesNothing pins the deterministic shortcut: a
// DFA never builds the product.
func TestIsUnambiguousDFAAllocatesNothing(t *testing.T) {
	d := RandomDFA(rand.New(rand.NewSource(3)), NewAlphabet("a", "b", "c", "d"), 256, 0.5)
	if allocs := testing.AllocsPerRun(20, func() {
		if !IsUnambiguous(d) {
			t.Fatal("a DFA is unambiguous")
		}
	}); allocs != 0 {
		t.Fatalf("IsUnambiguous on a 256-state DFA allocates %v objects, want 0", allocs)
	}
}

// TestCountPathsPastOneLimb checks the limb DP where counts outgrow one
// and two limbs mid-sweep: the all-words automaton over σ symbols has
// σ^n paths of length n.
func TestCountPathsPastOneLimb(t *testing.T) {
	for _, sigma := range []int{2, 3, 4} {
		names := []string{"a", "b", "c", "d"}[:sigma]
		n := New(NewAlphabet(names...), 2)
		for a := 0; a < sigma; a++ {
			n.AddTransition(0, a, 0)
			n.AddTransition(0, a, 1)
		}
		n.SetFinal(1, true)
		for _, length := range []int{0, 1, 40, 65, 130} {
			want := new(big.Int)
			if length > 0 {
				want.Exp(big.NewInt(int64(sigma)), big.NewInt(int64(length-1)), nil)
				want.Mul(want, big.NewInt(int64(sigma)))
			}
			if got := CountPaths(n, length); got.Cmp(want) != 0 {
				t.Fatalf("σ=%d n=%d: CountPaths = %v, want %v", sigma, length, got, want)
			}
		}
	}
}
