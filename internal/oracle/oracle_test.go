package oracle

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/enumerate"
	"repro/internal/exact"
	"repro/internal/lengthrange"
	"repro/internal/sample"
	"repro/internal/stats"
)

// The differential grid: seeds 1..20, witness lengths ≤ 8, small state
// counts — every engine answer must match the brute-force oracle
// exactly. The parallel configurations run real goroutines, so `go test
// -race ./internal/oracle/` (CI) races the whole suite.

const maxSeed = 20

// gridNFA returns the seed's random (usually ambiguous) NFA.
func gridNFA(seed int64) *automata.NFA {
	rng := rand.New(rand.NewSource(seed))
	return automata.Random(rng, automata.Binary(), 3+rng.Intn(4), 0.18+0.12*rng.Float64(), 0.4)
}

// gridUFA returns the seed's random DFA (unambiguous by construction).
func gridUFA(seed int64) *automata.NFA {
	rng := rand.New(rand.NewSource(seed + 1000))
	return automata.RandomDFA(rng, automata.Binary(), 2+rng.Intn(5), 0.5)
}

// gridLength derives the seed's witness length (≤ 8, ≥ 2).
func gridLength(seed int64) int { return 2 + int(seed)%7 }

func drainSession(alpha *automata.Alphabet, s enumerate.Session) []string {
	out := enumerate.Collect(alpha, s, 0)
	s.Close()
	return out
}

// TestOracleVsExactCounting: both exact counters agree with counting by
// explicit listing on every grid instance.
func TestOracleVsExactCounting(t *testing.T) {
	for seed := int64(1); seed <= maxSeed; seed++ {
		n := gridLength(seed)
		nfa := automata.Trim(gridNFA(seed))
		want := Count(nfa, n)
		got, err := exact.CountNFA(nfa, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("seed %d: CountNFA = %v, oracle %v", seed, got, want)
		}
		ufa := automata.Trim(gridUFA(seed))
		wantU := Count(ufa, n)
		if gotU := exact.CountUFA(ufa, n); gotU.Cmp(wantU) != 0 {
			t.Fatalf("seed %d: CountUFA = %v, oracle %v", seed, gotU, wantU)
		}
	}
}

// TestOracleVsFlashlight: the NFA enumerator emits exactly the oracle's
// lexicographic listing — order included — serially and through the
// ordered parallel stream.
func TestOracleVsFlashlight(t *testing.T) {
	for seed := int64(1); seed <= maxSeed; seed++ {
		n := gridLength(seed)
		nfa := automata.Trim(gridNFA(seed))
		want := Strings(nfa, n)
		e, err := enumerate.NewNFA(nfa, n)
		if err != nil {
			t.Fatal(err)
		}
		got := drainSession(nfa.Alphabet(), e)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("seed %d: flashlight differs from oracle:\n%v\nvs\n%v", seed, got, want)
		}
		st, err := enumerate.NewNFAStream(nfa, n, enumerate.StreamOptions{Workers: 3, Ordered: true})
		if err != nil {
			t.Fatal(err)
		}
		par := drainSession(nfa.Alphabet(), st)
		if strings.Join(par, " ") != strings.Join(want, " ") {
			t.Fatalf("seed %d: ordered stream differs from oracle (%d vs %d words)", seed, len(par), len(want))
		}
	}
}

// TestOracleVsCountdag: Algorithm 1's enumeration is a permutation of the
// oracle set, and the single-length counting index [n, n] (the former
// countdag index) is consistent with both the oracle set and the engine's
// own order — as is a wider [lo, hi] index at length n, rank for rank.
func TestOracleVsCountdag(t *testing.T) {
	for seed := int64(1); seed <= maxSeed; seed++ {
		n := gridLength(seed)
		ufa := automata.Trim(gridUFA(seed))
		want := SetOf(ufa, n)
		e, err := enumerate.NewUFA(ufa, n)
		if err != nil {
			t.Fatal(err)
		}
		got := drainSession(ufa.Alphabet(), e)
		if len(got) != len(want) {
			t.Fatalf("seed %d: enumerated %d words, oracle %d", seed, len(got), len(want))
		}
		for _, w := range got {
			if !want[w] {
				t.Fatalf("seed %d: enumerated non-member %q", seed, w)
			}
		}
		idx, err := lengthrange.Build(ufa, n, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := lengthrange.Build(ufa, max(n-2, 0), n+1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if idx.TotalRange().Cmp(Count(ufa, n)) != 0 {
			t.Fatalf("seed %d: [n, n] total %v, oracle %v", seed, idx.TotalRange(), Count(ufa, n))
		}
		for i, w := range got {
			for _, x := range []*lengthrange.RangeIndex{idx, wide} {
				u, err := x.UnrankAt(n, big.NewInt(int64(i)))
				if err != nil {
					t.Fatal(err)
				}
				if ufa.Alphabet().FormatWord(u) != w {
					t.Fatalf("seed %d [%d, %d]: UnrankAt(%d) = %q, engine order %q", seed, x.Lo(), x.Hi(), i, ufa.Alphabet().FormatWord(u), w)
				}
				r, err := x.RankAt(u)
				if err != nil {
					t.Fatal(err)
				}
				if r.Int64() != int64(i) {
					t.Fatalf("seed %d [%d, %d]: RankAt(UnrankAt(%d)) = %v", seed, x.Lo(), x.Hi(), i, r)
				}
			}
		}
		// Every oracle non-member must be rejected by RankAt.
		probe := make(automata.Word, n)
		if !want[ufa.Alphabet().FormatWord(probe)] {
			if _, err := idx.RankAt(probe); err == nil {
				t.Fatalf("seed %d: RankAt accepted non-member", seed)
			}
		}
	}
}

// TestOracleVsSampler: every draw of every sampler lands in the oracle
// set, and on small languages the index sampler passes the shared
// uniformity check over the exact oracle support.
func TestOracleVsSampler(t *testing.T) {
	for seed := int64(1); seed <= maxSeed; seed++ {
		n := gridLength(seed)
		ufa := automata.Trim(gridUFA(seed))
		set := SetOf(ufa, n)
		s, err := sample.NewUFASampler(ufa, n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 7))
		if len(set) == 0 {
			if _, err := s.Sample(rng); err != lengthrange.ErrEmpty {
				t.Fatalf("seed %d: empty language gave %v", seed, err)
			}
			continue
		}
		draws := 40
		uniformity := len(set) >= 2 && len(set) <= 12
		if uniformity {
			draws = 400 * len(set)
		}
		hist := map[string]int{}
		for i := 0; i < draws; i++ {
			w, err := s.Sample(rng)
			if err != nil {
				t.Fatal(err)
			}
			f := ufa.Alphabet().FormatWord(w)
			if !set[f] {
				t.Fatalf("seed %d: sampled non-member %q", seed, f)
			}
			hist[f]++
		}
		if uniformity {
			if err := stats.UniformOverSupport(hist, Strings(ufa, n)); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestOracleVsIndexOnAmbiguousNFAs pins how the counting index reads an
// ambiguous automaton, which the Monte-Carlo baseline's path draw relies
// on: a [n, n] index counts accepting runs — its total is
// automata.CountPaths and the oracle words' run counts summed — and
// Sample draws a uniform run, so each word comes up in proportion to its
// run count.
func TestOracleVsIndexOnAmbiguousNFAs(t *testing.T) {
	ambiguous := 0
	for seed := int64(1); seed <= maxSeed; seed++ {
		n := gridLength(seed)
		nfa := gridNFA(seed)
		idx, err := lengthrange.Build(nfa, n, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		words := Words(nfa, n)
		at := map[string]int{}
		weights := make([]float64, len(words))
		runs := new(big.Int)
		for i, w := range words {
			r := automata.CountAcceptingRuns(nfa, w)
			runs.Add(runs, r)
			weights[i] = float64(r.Int64())
			at[nfa.Alphabet().FormatWord(w)] = i
		}
		total, err := idx.TotalAt(n)
		if err != nil {
			t.Fatal(err)
		}
		if paths := automata.CountPaths(nfa, n); total.Cmp(paths) != 0 || total.Cmp(runs) != 0 {
			t.Fatalf("seed %d: index total %v, CountPaths %v, summed runs %v", seed, total, paths, runs)
		}
		if runs.Cmp(big.NewInt(int64(len(words)))) > 0 {
			ambiguous++
		}
		if len(words) < 2 {
			continue
		}
		rng := rand.New(rand.NewSource(seed * 11))
		counts := make([]int, len(words))
		for d := 100 * runs.Int64(); d > 0; d-- {
			w, err := idx.Sample(rng)
			if err != nil {
				t.Fatal(err)
			}
			i, ok := at[nfa.Alphabet().FormatWord(w)]
			if !ok {
				t.Fatalf("seed %d: sampled non-member %v", seed, w)
			}
			counts[i]++
		}
		if ok, stat, err := stats.GoodnessOK(counts, weights); err != nil || !ok {
			t.Fatalf("seed %d: draws not proportional to run counts (chi2 = %.1f, %v)", seed, stat, err)
		}
	}
	if ambiguous == 0 {
		t.Fatal("no ambiguous instance on the grid")
	}
}

// TestOracleVsLengthRange: the cross-length index and its session agree
// with the oracle on every per-length slice and on the whole union —
// totals, the length-lex global order, rank/unrank inverses, parallel
// enumeration and range sampling.
func TestOracleVsLengthRange(t *testing.T) {
	for seed := int64(1); seed <= maxSeed; seed++ {
		hi := gridLength(seed)
		lo := int(seed) % 3
		ufa := automata.Trim(gridUFA(seed))
		ri, err := lengthrange.Build(ufa, lo, hi, 3)
		if err != nil {
			t.Fatal(err)
		}
		if ri.TotalRange().Cmp(CountRange(ufa, lo, hi)) != 0 {
			t.Fatalf("seed %d: TotalRange %v, oracle %v", seed, ri.TotalRange(), CountRange(ufa, lo, hi))
		}
		var union []string
		for l := lo; l <= hi; l++ {
			total, err := ri.TotalAt(l)
			if err != nil {
				t.Fatal(err)
			}
			if total.Cmp(Count(ufa, l)) != 0 {
				t.Fatalf("seed %d l=%d: TotalAt %v, oracle %v", seed, l, total, Count(ufa, l))
			}
			// The per-length span, in engine order.
			e, err := enumerate.NewUFA(ufa, l)
			if err != nil {
				t.Fatal(err)
			}
			span := drainSession(ufa.Alphabet(), e)
			set := SetOf(ufa, l)
			if len(span) != len(set) {
				t.Fatalf("seed %d l=%d: engine span %d, oracle %d", seed, l, len(span), len(set))
			}
			union = append(union, span...)
		}
		// Global order = concatenation of spans; rank/unrank invert it.
		for i, w := range union {
			if i >= 64 {
				break
			}
			u, err := ri.UnrankRange(big.NewInt(int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			f := ufa.Alphabet().FormatWord(u)
			if f != w {
				t.Fatalf("seed %d: UnrankRange(%d) = %q, want %q", seed, i, f, w)
			}
			r, err := ri.RankRange(u)
			if err != nil {
				t.Fatal(err)
			}
			if r.Int64() != int64(i) {
				t.Fatalf("seed %d: RankRange(UnrankRange(%d)) = %v", seed, i, r)
			}
		}
		// The chained session (parallel per length) emits exactly the union.
		fp := enumerate.Fingerprint(ufa)
		rs, err := enumerate.NewRangeSession(lo, hi, fp, func(length int, cursor string, seek *big.Int) (enumerate.Session, error) {
			if cursor != "" {
				return enumerate.Resume(ufa, cursor)
			}
			e, err := enumerate.NewUFA(ufa, length)
			if err != nil {
				return nil, err
			}
			if seek != nil {
				if err := e.SeekRank(seek); err != nil {
					return nil, err
				}
			}
			return e.Stream(enumerate.StreamOptions{Workers: 2, Ordered: true}), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got := drainSession(ufa.Alphabet(), rs)
		if strings.Join(got, " ") != strings.Join(union, " ") {
			t.Fatalf("seed %d: range session differs from oracle union (%d vs %d words)", seed, len(got), len(union))
		}
		// Range sampling stays inside the union.
		if ri.TotalRange().Sign() > 0 {
			ws, err := ri.SampleMany(seed, 0xFACE, 32, 3)
			if err != nil {
				t.Fatal(err)
			}
			inUnion := map[string]bool{}
			for _, w := range union {
				inUnion[w] = true
			}
			for _, w := range ws {
				if !inUnion[ufa.Alphabet().FormatWord(w)] {
					t.Fatalf("seed %d: range-sampled non-member %q", seed, ufa.Alphabet().FormatWord(w))
				}
			}
		}
	}
}

// TestOracleRankLexVsFlashlight: rank-by-position in the oracle's lex
// listing matches the flashlight's emission index (the flashlight order
// IS lexicographic), closing the loop on the oracle's own rank notion.
func TestOracleRankLexVsFlashlight(t *testing.T) {
	nfa := automata.Trim(gridNFA(3))
	n := 5
	e, err := enumerate.NewNFA(nfa, n)
	if err != nil {
		t.Fatal(err)
	}
	words := enumerate.CollectWords(e, 0)
	for i, w := range words {
		if got := RankLex(nfa, w); got != i {
			t.Fatalf("RankLex(%q) = %d, flashlight position %d", nfa.Alphabet().FormatWord(w), got, i)
		}
	}
	if len(words) > 0 {
		bad := append(automata.Word(nil), words[0]...)
		bad = append(bad, 0)
		if RankLex(nfa, bad) != -1 {
			t.Fatal("RankLex accepted an over-length word")
		}
	}
}

// TestRankLexUnsortedAlphabetNames: the listing is in symbol-INDEX
// order, which need not be string-sorted — a reversed-name alphabet
// (symbol 0 named "b") must still rank correctly.
func TestRankLexUnsortedAlphabetNames(t *testing.T) {
	alpha := automata.NewAlphabet("b", "a") // names descend as indices ascend
	nfa := automata.New(alpha, 1)
	nfa.SetStart(0)
	nfa.SetFinal(0, true)
	nfa.AddTransition(0, 0, 0)
	nfa.AddTransition(0, 1, 0)
	// Index order at length 2: bb, ba, ab, aa — not string order.
	want := []string{"bb", "ba", "ab", "aa"}
	got := Strings(nfa, 2)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("listing %v, want %v", got, want)
	}
	for i, w := range Words(nfa, 2) {
		if r := RankLex(nfa, w); r != i {
			t.Fatalf("RankLex(%q) = %d, want %d", alpha.FormatWord(w), r, i)
		}
	}
}
