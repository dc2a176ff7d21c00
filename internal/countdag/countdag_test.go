package countdag_test

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/countdag"
	"repro/internal/enumerate"
	"repro/internal/exact"
	"repro/internal/oracle"
	"repro/internal/sample"
	"repro/internal/unroll"
)

// buildIndex unrolls with backward pruning (the enumeration DAG) and
// indexes it.
func buildIndex(t testing.TB, n *automata.NFA, length, workers int) *countdag.Index {
	t.Helper()
	dag, err := unroll.Build(n, length, unroll.Options{PruneBackward: true})
	if err != nil {
		t.Fatal(err)
	}
	return countdag.Build(dag, workers)
}

// TestTotalMatchesExactCount: the index root count is |L_n| on random UFAs
// (including empty slices) and the paper example.
func TestTotalMatchesExactCount(t *testing.T) {
	paper, length := automata.PaperExample()
	if got := buildIndex(t, paper, length, 1).Total(); got.Cmp(big.NewInt(4)) != 0 {
		t.Fatalf("paper example total = %v, want 4", got)
	}
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		dfa := automata.RandomDFA(rng, automata.Binary(), 2+rng.Intn(10), 0.4)
		n := rng.Intn(9)
		want := exact.CountUFA(dfa, n)
		got := buildIndex(t, dfa, n, 1).Total()
		if got.Cmp(want) != 0 {
			t.Fatalf("trial %d (n=%d): total = %v, want %v", trial, n, got, want)
		}
	}
}

// TestBuildWorkerEquivalence: the layer-parallel build is bitwise
// deterministic — identical tables for every worker count.
func TestBuildWorkerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 5; trial++ {
		dfa := automata.RandomDFA(rng, automata.Binary(), 4+rng.Intn(20), 0.5)
		n := 6 + rng.Intn(6)
		serial := buildIndex(t, dfa, n, 1)
		parallel := buildIndex(t, dfa, n, 4)
		if serial.Total().Cmp(parallel.Total()) != 0 {
			t.Fatalf("trial %d: totals differ: %v vs %v", trial, serial.Total(), parallel.Total())
		}
		var r big.Int
		for i := int64(0); big.NewInt(i).Cmp(serial.Total()) < 0 && i < 200; i++ {
			r.SetInt64(i)
			a, err1 := serial.Unrank(&r)
			b, err2 := parallel.Unrank(&r)
			if err1 != nil || err2 != nil {
				t.Fatalf("trial %d rank %d: %v / %v", trial, i, err1, err2)
			}
			if automata.Binary().FormatWord(a) != automata.Binary().FormatWord(b) {
				t.Fatalf("trial %d rank %d: %v vs %v", trial, i, a, b)
			}
		}
	}
}

// TestUnrankOrderMatchesEnumeration: Unrank(0..total-1) is exactly the
// word sequence Algorithm 1 emits, and Rank inverts it — the property the
// acceptance criterion names (unrank order = enumeration order,
// rank∘unrank = id).
func TestUnrankOrderMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	alpha := automata.Binary()
	for trial := 0; trial < 12; trial++ {
		dfa := automata.RandomDFA(rng, alpha, 2+rng.Intn(8), 0.5)
		length := 1 + rng.Intn(8)
		e, err := enumerate.NewUFA(dfa, length)
		if err != nil {
			t.Fatal(err)
		}
		words := enumerate.CollectWords(e, 0)
		x := buildIndex(t, dfa, length, 1)
		if x.Total().Cmp(big.NewInt(int64(len(words)))) != 0 {
			t.Fatalf("trial %d: total %v, enumerated %d", trial, x.Total(), len(words))
		}
		for i, w := range words {
			got, err := x.Unrank(big.NewInt(int64(i)))
			if err != nil {
				t.Fatalf("trial %d unrank %d: %v", trial, i, err)
			}
			if alpha.FormatWord(got) != alpha.FormatWord(w) {
				t.Fatalf("trial %d: unrank(%d) = %v, enumeration emits %v", trial, i, got, w)
			}
			r, err := x.Rank(w)
			if err != nil {
				t.Fatalf("trial %d rank of %v: %v", trial, w, err)
			}
			if r.Cmp(big.NewInt(int64(i))) != 0 {
				t.Fatalf("trial %d: rank(%v) = %v, want %d", trial, w, r, i)
			}
		}
		// Out-of-range ranks and non-members are rejected.
		if _, err := x.Unrank(big.NewInt(int64(len(words)))); err == nil {
			t.Fatalf("trial %d: unrank(total) accepted", trial)
		}
		if _, err := x.Unrank(big.NewInt(-1)); err == nil {
			t.Fatalf("trial %d: unrank(-1) accepted", trial)
		}
		inLang := map[string]bool{}
		for _, w := range words {
			inLang[alpha.FormatWord(w)] = true
		}
		probe := make(automata.Word, length)
		for i := range probe {
			probe[i] = rng.Intn(2)
		}
		if !inLang[alpha.FormatWord(probe)] {
			if _, err := x.Rank(probe); !errors.Is(err, countdag.ErrNotMember) {
				t.Fatalf("trial %d: Rank(non-member %v) = %v, want ErrNotMember", trial, probe, err)
			}
		}
		if _, err := x.Rank(probe[:0]); length > 0 && !errors.Is(err, countdag.ErrNotMember) {
			t.Fatalf("trial %d: Rank(short word) accepted", trial)
		}
	}
}

// TestUnrankChoicesSeekEquivalence: the decision vector UnrankChoices
// returns is the same position the enumerator reaches after emitting
// rank+1 words — the invariant rank-seek resume relies on.
func TestUnrankChoicesSeekEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 8; trial++ {
		dfa := automata.RandomDFA(rng, automata.Binary(), 3+rng.Intn(6), 0.5)
		length := 2 + rng.Intn(6)
		x := buildIndex(t, dfa, length, 1)
		total := x.Total().Int64()
		if total == 0 {
			continue
		}
		e, err := enumerate.NewUFA(dfa, length)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < total; i++ {
			if _, ok := e.Next(); !ok {
				t.Fatalf("trial %d: enumeration ended at %d of %d", trial, i, total)
			}
			choices, w, _, err := x.UnrankChoices(big.NewInt(i))
			if err != nil {
				t.Fatal(err)
			}
			c := e.Cursor()
			if len(c.Pos) != len(choices) {
				t.Fatalf("trial %d rank %d: cursor %v vs choices %v", trial, i, c.Pos, choices)
			}
			for j := range choices {
				if c.Pos[j] != choices[j] {
					t.Fatalf("trial %d rank %d: cursor %v vs choices %v", trial, i, c.Pos, choices)
				}
			}
			r2, err := x.RankOfChoices(choices)
			if err != nil || r2.Cmp(big.NewInt(i)) != 0 {
				t.Fatalf("trial %d: RankOfChoices(%v) = %v (%v), want %d", trial, choices, r2, err, i)
			}
			if !dfa.Accepts(w) {
				t.Fatalf("trial %d: unranked word %v not accepted", trial, w)
			}
		}
	}
}

// TestSubtreeSpanPartitions: the children of any vertex partition its rank
// interval, in edge order, with no gaps — the prefix-sum invariant every
// consumer leans on.
func TestSubtreeSpanPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	dfa := automata.RandomDFA(rng, automata.Binary(), 8, 0.5)
	const length = 8
	x := buildIndex(t, dfa, length, 1)
	var walk func(path []int)
	walk = func(path []int) {
		first, count, err := x.SubtreeSpan(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(path) == length {
			if count.Cmp(big.NewInt(1)) != 0 {
				t.Fatalf("leaf %v count %v", path, count)
			}
			return
		}
		q, err := x.PathVertex(path)
		if err != nil {
			t.Fatal(err)
		}
		cum := x.EdgeCum(len(path), q)
		// Children cover [first, first+count) contiguously.
		if cum[len(cum)-1].Cmp(count) != 0 {
			t.Fatalf("path %v: edge sums %v != subtree count %v", path, cum[len(cum)-1], count)
		}
		if len(path) < 2 { // bound the exhaustive walk
			for i := 0; i < len(cum)-1; i++ {
				childFirst, childCount, err := x.SubtreeSpan(append(append([]int(nil), path...), i))
				if err != nil {
					t.Fatal(err)
				}
				wantFirst := new(big.Int).Add(first, cum[i])
				if childFirst.Cmp(wantFirst) != 0 {
					t.Fatalf("path %v child %d: first %v, want %v", path, i, childFirst, wantFirst)
				}
				wantCount := new(big.Int).Sub(cum[i+1], cum[i])
				if childCount.Cmp(wantCount) != 0 {
					t.Fatalf("path %v child %d: count %v, want %v", path, i, childCount, wantCount)
				}
				walk(append(append([]int(nil), path...), i))
			}
		}
	}
	walk(nil)
}

// TestZeroLength: the n = 0 index has total 1 (ε accepted) or 0, and
// rank/unrank handle the empty word.
func TestZeroLength(t *testing.T) {
	alpha := automata.Binary()
	acc := automata.New(alpha, 1)
	acc.SetFinal(0, true)
	acc.AddTransition(0, 0, 0)
	x := buildIndex(t, acc, 0, 1)
	if x.Total().Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("ε-accepting total = %v", x.Total())
	}
	w, err := x.Unrank(big.NewInt(0))
	if err != nil || len(w) != 0 {
		t.Fatalf("Unrank(0) = %v, %v", w, err)
	}
	r, err := x.Rank(automata.Word{})
	if err != nil || r.Sign() != 0 {
		t.Fatalf("Rank(ε) = %v, %v", r, err)
	}
	rej := automata.Chain(alpha, automata.Word{0})
	x2 := buildIndex(t, rej, 0, 1)
	if x2.Total().Sign() != 0 {
		t.Fatalf("ε-rejecting total = %v", x2.Total())
	}
	if _, err := x2.Rank(automata.Word{}); !errors.Is(err, countdag.ErrNotMember) {
		t.Fatalf("Rank(ε) on empty slice: %v", err)
	}
}

// TestZeroLengthMatchesOracle: an n = 0 index is the degenerate arena —
// s_start is the only vertex and has no edges — and every accessor agrees
// with the brute-force oracle: Count(0, start) is 1 exactly when ε is
// accepted, EdgeCum(0, ·) is the empty prefix [0], SubtreeSpan(nil)
// spans the whole slice, and Unrank, Rank and Sample give ε or fail
// cleanly.
func TestZeroLengthMatchesOracle(t *testing.T) {
	alpha := automata.Binary()
	all, _ := automata.OverflowBoundary(2)
	for _, nfa := range []*automata.NFA{all, automata.Chain(alpha, automata.Word{0})} {
		x := buildIndex(t, nfa, 0, 1)
		want := oracle.Count(nfa, 0)
		start := nfa.Start()
		if got := x.Count(0, start); got.Cmp(want) != 0 {
			t.Fatalf("Count(0, start) = %v, oracle %v", got, want)
		}
		if cum := x.EdgeCum(0, start); len(cum) != 1 || cum[0].Sign() != 0 {
			t.Fatalf("EdgeCum(0, start) = %v, want [0]", cum)
		}
		first, count, err := x.SubtreeSpan(nil)
		if err != nil || first.Sign() != 0 || count.Cmp(want) != 0 {
			t.Fatalf("SubtreeSpan(nil) = %v, %v, %v; want 0, %v", first, count, err, want)
		}
		s := sample.NewUFASamplerIndex(nfa, x)
		w, err := s.Sample(rand.New(rand.NewSource(1)))
		if want.Sign() == 0 {
			if !errors.Is(err, sample.ErrEmpty) {
				t.Fatalf("Sample on the empty slice: %v, %v", w, err)
			}
			if _, err := x.Rank(automata.Word{}); !errors.Is(err, countdag.ErrNotMember) {
				t.Fatalf("Rank(ε) on the empty slice: %v", err)
			}
			continue
		}
		if err != nil || len(w) != 0 || !oracle.Member(nfa, w) {
			t.Fatalf("Sample = %v, %v; want ε", w, err)
		}
		if w, err := x.Unrank(big.NewInt(0)); err != nil || len(w) != 0 {
			t.Fatalf("Unrank(0) = %v, %v", w, err)
		}
		if r, err := x.Rank(automata.Word{}); err != nil || r.Sign() != 0 {
			t.Fatalf("Rank(ε) = %v, %v", r, err)
		}
	}
}

// FuzzRankUnrank: for arbitrary fuzzer-chosen automata parameters, ranks
// and words, the round trips hold or fail cleanly — never a panic, never a
// silent mismatch: unrank(r) is always accepted and ranks back to r; a
// fuzzed word either ranks to a value that unranks back to it, or is
// rejected with ErrNotMember.
func FuzzRankUnrank(f *testing.F) {
	f.Add(int64(1), 6, 4, uint64(3), []byte{0, 1, 0, 1})
	f.Add(int64(2), 2, 0, uint64(0), []byte{})
	f.Add(int64(3), 12, 7, uint64(1000), []byte{1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, seed int64, m, length int, rank uint64, wordBytes []byte) {
		if m < 1 || m > 24 || length < 0 || length > 12 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		dfa := automata.RandomDFA(rng, automata.Binary(), m, 0.5)
		dag, err := unroll.Build(dfa, length, unroll.Options{PruneBackward: true})
		if err != nil {
			t.Fatal(err)
		}
		x := countdag.Build(dag, 2)
		total := x.Total()
		if total.Sign() > 0 {
			r := new(big.Int).Mod(new(big.Int).SetUint64(rank), total)
			w, err := x.Unrank(r)
			if err != nil {
				t.Fatalf("Unrank(%v) with total %v: %v", r, total, err)
			}
			if !dfa.Accepts(w) {
				t.Fatalf("Unrank(%v) = %v not accepted", r, w)
			}
			back, err := x.Rank(w)
			if err != nil {
				t.Fatalf("Rank(Unrank(%v)): %v", r, err)
			}
			if back.Cmp(r) != 0 {
				t.Fatalf("rank round trip %v -> %v -> %v", r, w, back)
			}
		}
		// A fuzzed word must either round-trip or be cleanly rejected.
		w := make(automata.Word, len(wordBytes))
		for i, b := range wordBytes {
			w[i] = int(b) % 2
		}
		r, err := x.Rank(w)
		if err != nil {
			if !errors.Is(err, countdag.ErrNotMember) {
				t.Fatalf("Rank(%v) failed without ErrNotMember: %v", w, err)
			}
			return
		}
		back, err := x.Unrank(r)
		if err != nil {
			t.Fatalf("Unrank(Rank(%v)=%v): %v", w, r, err)
		}
		if automata.Binary().FormatWord(back) != automata.Binary().FormatWord(w) {
			t.Fatalf("word round trip %v -> %v -> %v", w, r, back)
		}
	})
}
