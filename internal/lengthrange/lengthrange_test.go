package lengthrange

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/automata"
	"repro/internal/exact"
	"repro/internal/oracle"
	"repro/internal/stats"
)

// TestRangeMatchesCountdagPerLength: for every length n in the range,
// the [lo, hi] index answers bitwise what the single-length index [n, n]
// answers — TotalAt, UnrankAt, RankAt, the decision vectors and subtree
// spans Algorithm 1 reads, and the prefix rows of every vertex on the
// walked paths — and the totals equal exact.CountUFA, the independent
// path-counting DP. (The [n, n] index is what the former countdag
// package computed from its own DAG sweep; the golden record in
// internal/oracle pins both against that engine's output.)
func TestRangeMatchesCountdagPerLength(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		nfa := automata.RandomDFA(rng, automata.Binary(), 2+rng.Intn(6), 0.5)
		lo, hi := rng.Intn(3), 4+rng.Intn(5)
		ri, err := Build(nfa, lo, hi, 1+rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		for n := lo; n <= hi; n++ {
			idx, err := Build(nfa, n, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			total, err := ri.TotalAt(n)
			if err != nil {
				t.Fatal(err)
			}
			if total.Cmp(idx.TotalRange()) != 0 {
				t.Fatalf("trial %d n=%d: TotalAt %v, [n, n] %v", trial, n, total, idx.TotalRange())
			}
			if total.Cmp(exact.CountUFA(automata.Trim(nfa), n)) != 0 {
				t.Fatalf("trial %d n=%d: TotalAt %v disagrees with exact.CountUFA", trial, n, total)
			}
			limit := total.Int64()
			if limit > 64 {
				limit = 64
			}
			for i := int64(0); i < limit; i++ {
				r := big.NewInt(i)
				got, err := ri.UnrankAt(n, r)
				if err != nil {
					t.Fatal(err)
				}
				want, err := idx.UnrankAt(n, r)
				if err != nil {
					t.Fatal(err)
				}
				if nfa.Alphabet().FormatWord(got) != nfa.Alphabet().FormatWord(want) {
					t.Fatalf("trial %d n=%d rank %d: range %q, [n, n] %q",
						trial, n, i, nfa.Alphabet().FormatWord(got), nfa.Alphabet().FormatWord(want))
				}
				gotRank, err := ri.RankAt(got)
				if err != nil {
					t.Fatal(err)
				}
				wantRank, err := idx.RankAt(want)
				if err != nil {
					t.Fatal(err)
				}
				if gotRank.Cmp(wantRank) != 0 || gotRank.Cmp(r) != 0 {
					t.Fatalf("trial %d n=%d: RankAt(UnrankAt(%d)) = %v ([n, n] %v)", trial, n, i, gotRank, wantRank)
				}
				choices, err := ri.UnrankChoicesAt(n, r)
				if err != nil {
					t.Fatal(err)
				}
				wantChoices, err := idx.UnrankChoicesAt(n, r)
				if err != nil {
					t.Fatal(err)
				}
				sameSpans(t, ri, idx, n, choices, wantChoices)
			}
			if _, err := ri.UnrankAt(n, new(big.Int).Set(total)); err == nil {
				t.Fatalf("trial %d n=%d: UnrankAt(total) accepted", trial, n)
			}
		}
	}
}

// sameSpans checks that two indexes covering length n agree on a
// decision vector and on everything read along it: the rank of the full
// vector, the span of every prefix and the prefix row of every vertex.
func sameSpans(t *testing.T, a, b *RangeIndex, n int, pa, pb []int) {
	t.Helper()
	if len(pa) != len(pb) {
		t.Fatalf("n=%d: decision vectors %v and %v", n, pa, pb)
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("n=%d: decision vectors %v and %v", n, pa, pb)
		}
	}
	ra, err1 := a.RankOfChoicesAt(n, pa)
	rb, err2 := b.RankOfChoicesAt(n, pb)
	if err1 != nil || err2 != nil || ra.Cmp(rb) != 0 {
		t.Fatalf("n=%d: RankOfChoicesAt(%v) = %v / %v (%v / %v)", n, pa, ra, rb, err1, err2)
	}
	q := a.Automaton().Start()
	for depth := 0; depth <= n; depth++ {
		fa, ca, err1 := a.SubtreeSpanAt(n, pa[:depth])
		fb, cb, err2 := b.SubtreeSpanAt(n, pa[:depth])
		if err1 != nil || err2 != nil || fa.Cmp(fb) != 0 || ca.Cmp(cb) != 0 {
			t.Fatalf("n=%d: SubtreeSpanAt(%v) = (%v, %v) / (%v, %v)", n, pa[:depth], fa, ca, fb, cb)
		}
		if depth == n {
			break
		}
		ea, eb := a.EdgeCumAt(n, depth, q), b.EdgeCumAt(n, depth, q)
		if len(ea) != len(eb) || len(ea) < 2 || ea[len(ea)-1].Cmp(ca) != 0 {
			t.Fatalf("n=%d layer %d: EdgeCumAt %v / %v, subtree count %v", n, depth, ea, eb, ca)
		}
		for i := range ea {
			if ea[i].Cmp(eb[i]) != 0 {
				t.Fatalf("n=%d layer %d: EdgeCumAt %v / %v", n, depth, ea, eb)
			}
		}
		q = a.OutEdges(n-depth, q)[pa[depth]].To
	}
}

// TestRangeBuildWorkerEquivalence: the shared sweep is bitwise identical
// for every worker count — every table (completion counts, prefix rows,
// row offsets, edge-list bounds and the edge pool, totals spine), not
// just the answers read from them. The 24-state DFA's layers are below
// the inline cut-over; the 4,500-state σ = 4 DFA's are above it at both
// widths its build tries (one limb carries at remaining length ≈ 32, so
// the carry also stops a fanned-out layer), so its layers fan out.
func TestRangeBuildWorkerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	small := automata.RandomDFA(rng, automata.Binary(), 24, 0.5)
	large := automata.Normalize(automata.RandomDFA(rng, automata.NewAlphabet("a", "b", "c", "d"), 4500, 0.5))
	for _, c := range []struct {
		name   string
		nfa    *automata.NFA
		lo, hi int
		width  int
	}{
		{"small", small, 2, 12, 1},
		{"large", large, 30, 34, 2},
	} {
		base, err := Build(c.nfa, c.lo, c.hi, 1)
		if err != nil {
			t.Fatal(err)
		}
		if base.Width() != c.width {
			t.Fatalf("%s: width %d, want %d", c.name, base.Width(), c.width)
		}
		if above := c.nfa.NumTransitions() >= parallelWork; above != (c.name == "large") {
			t.Fatalf("%s: %d edges against the cut-over %d", c.name, c.nfa.NumTransitions(), parallelWork)
		}
		for _, workers := range []int{2, 4, 7} {
			ri, err := Build(c.nfa, c.lo, c.hi, workers)
			if err != nil {
				t.Fatal(err)
			}
			if ri.k != base.k || !reflect.DeepEqual(ri.comp, base.comp) || !reflect.DeepEqual(ri.rows, base.rows) ||
				!reflect.DeepEqual(ri.off, base.off) || !reflect.DeepEqual(ri.lists, base.lists) ||
				!reflect.DeepEqual(ri.pool, base.pool) || !reflect.DeepEqual(ri.spine, base.spine) {
				t.Fatalf("%s workers=%d: tables differ from the serial build", c.name, workers)
			}
			for _, i := range []int64{0, 1, 7, 100} {
				r := big.NewInt(i)
				if r.Cmp(base.TotalRange()) >= 0 {
					continue
				}
				a, err1 := ri.UnrankRange(r)
				b, err2 := base.UnrankRange(r)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if c.nfa.Alphabet().FormatWord(a) != c.nfa.Alphabet().FormatWord(b) {
					t.Fatalf("%s workers=%d rank %d: %q vs %q", c.name, workers, i,
						c.nfa.Alphabet().FormatWord(a), c.nfa.Alphabet().FormatWord(b))
				}
			}
		}
	}
}

// TestRangeOutEdgesCapIsLen: edge lists are shared between remaining
// lengths and states, so every list OutEdges hands out has no spare
// capacity: a caller's append must copy, not overwrite a neighbour.
func TestRangeOutEdgesCapIsLen(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 8; trial++ {
		alpha := automata.NewAlphabet([]string{"a", "b", "c", "d"}[:2+trial%3]...)
		ri, err := Build(automata.RandomDFA(rng, alpha, 8+rng.Intn(40), 0.5), 4, 20, 1)
		if err != nil {
			t.Fatal(err)
		}
		before := append([]Edge(nil), ri.pool...)
		for r := 1; r <= ri.Hi(); r++ {
			for q := 0; q < ri.Automaton().NumStates(); q++ {
				e := ri.OutEdges(r, q)
				if cap(e) != len(e) {
					t.Fatalf("trial %d: OutEdges(%d, %d) has len %d, cap %d", trial, r, q, len(e), cap(e))
				}
				_ = append(e, Edge{Symbol: -1, To: -1})
			}
		}
		if !reflect.DeepEqual(before, ri.pool) {
			t.Fatalf("trial %d: appending to a list changed the index", trial)
		}
	}
}

// buildAllocBound is the most allocations one build of a 128-state σ = 4
// DFA over [16, 32] (32 layers) may make: the sweep allocates the layer's
// prefix-sum arena per layer and a constant number of tables per build,
// whatever the state count (44 at introduction; the per-(layer, state)
// edge lists it replaced made ≈2.9k).
const buildAllocBound = 2*32 + 16

// TestBuildAllocationBound pins the build's allocations per layer.
func TestBuildAllocationBound(t *testing.T) {
	for _, m := range []int{128, 1024} {
		d := automata.RandomDFA(rand.New(rand.NewSource(128)), automata.NewAlphabet("a", "b", "c", "d"), m, 0.5)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Build(d, 16, 32, 2); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > buildAllocBound {
			t.Fatalf("building a %d-state σ = 4 DFA over [16, 32] makes %v allocations, bound %d", m, allocs, buildAllocBound)
		}
		t.Logf("%d states: %v allocations per build", m, allocs)
	}
}

// TestRangeLengthLexRank: the global rank space is exactly the
// length-lexicographic concatenation of the per-length spans, and
// RankRange/UnrankRange invert each other across all of it.
func TestRangeLengthLexRank(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 8; trial++ {
		nfa := automata.RandomDFA(rng, automata.Binary(), 2+rng.Intn(5), 0.6)
		lo, hi := rng.Intn(2), 3+rng.Intn(4)
		ri, err := Build(nfa, lo, hi, 1)
		if err != nil {
			t.Fatal(err)
		}
		grand := ri.TotalRange()
		// Grand total = Σ per-length totals; spans start at the running sums.
		sum := new(big.Int)
		for n := lo; n <= hi; n++ {
			first, err := ri.FirstRankOf(n)
			if err != nil {
				t.Fatal(err)
			}
			if first.Cmp(sum) != 0 {
				t.Fatalf("trial %d: FirstRankOf(%d) = %v, want %v", trial, n, first, sum)
			}
			total, _ := ri.TotalAt(n)
			sum.Add(sum, total)
		}
		if sum.Cmp(grand) != 0 {
			t.Fatalf("trial %d: Σ totals %v != TotalRange %v", trial, sum, grand)
		}
		limit := grand.Int64()
		if limit > 300 {
			limit = 300
		}
		prevLen := -1
		for i := int64(0); i < limit; i++ {
			w, err := ri.UnrankRange(big.NewInt(i))
			if err != nil {
				t.Fatal(err)
			}
			if len(w) < prevLen {
				t.Fatalf("trial %d: rank %d has length %d after length %d (not length-lex)", trial, i, len(w), prevLen)
			}
			prevLen = len(w)
			if !nfa.Accepts(w) {
				t.Fatalf("trial %d: UnrankRange(%d) = %q is not a witness", trial, i, nfa.Alphabet().FormatWord(w))
			}
			r, err := ri.RankRange(w)
			if err != nil {
				t.Fatal(err)
			}
			if r.Int64() != i {
				t.Fatalf("trial %d: RankRange(UnrankRange(%d)) = %v", trial, i, r)
			}
		}
		if _, err := ri.UnrankRange(grand); err == nil && grand.Sign() >= 0 {
			t.Fatalf("trial %d: UnrankRange(grand) accepted", trial)
		}
		if _, err := ri.RankRange(make(automata.Word, hi+1)); err == nil {
			t.Fatalf("trial %d: RankRange of out-of-range length accepted", trial)
		}
	}
}

// TestRangeSamplerUniform: the range sampler is uniform over the union —
// checked with the shared stats helpers three ways: uniformity over the
// full support, the length marginal against the exact per-length counts,
// and within-length uniformity for each length.
func TestRangeSamplerUniform(t *testing.T) {
	// Σ* over lengths 0..4: totals 1, 2, 4, 8, 16 — a non-degenerate
	// length marginal on a 31-word union.
	nfa := automata.All(automata.Binary())
	lo, hi := 0, 4
	ri, err := Build(nfa, lo, hi, 1)
	if err != nil {
		t.Fatal(err)
	}
	grand := ri.TotalRange().Int64()
	if grand != 31 {
		t.Fatalf("TotalRange = %d, want 31", grand)
	}
	// Support = the whole union, per length.
	perLength := make(map[int][]string)
	var support []string
	for n := lo; n <= hi; n++ {
		words := oracle.Strings(nfa, n)
		perLength[n] = words
		support = append(support, words...)
	}
	if int64(len(support)) != grand {
		t.Fatalf("support %d != TotalRange %v", len(support), grand)
	}
	rng := rand.New(rand.NewSource(34))
	draws := map[string]int{}
	lenCounts := make([]int, hi-lo+1)
	trials := 2000 * len(support)
	if trials > 40000 {
		trials = 40000
	}
	for i := 0; i < trials; i++ {
		w, err := ri.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		draws[nfa.Alphabet().FormatWord(w)]++
		lenCounts[len(w)-lo]++
	}
	// Whole-union uniformity.
	if err := stats.UniformOverSupport(draws, support); err != nil {
		t.Fatalf("union not uniform: %v", err)
	}
	// Length marginal ∝ exact per-length counts.
	weights := make([]float64, hi-lo+1)
	for n := lo; n <= hi; n++ {
		total, _ := ri.TotalAt(n)
		weights[n-lo] = float64(total.Int64())
	}
	if ok, stat, err := stats.GoodnessOK(lenCounts, weights); err != nil || !ok {
		t.Fatalf("length marginal off (chi2=%f, err=%v): counts %v, weights %v", stat, err, lenCounts, weights)
	}
	// Within-length uniformity, length by length.
	for n := lo; n <= hi; n++ {
		if len(perLength[n]) < 2 {
			continue
		}
		sub := map[string]int{}
		for _, w := range perLength[n] {
			if c := draws[w]; c > 0 {
				sub[w] = c
			}
		}
		if err := stats.UniformOverSupport(sub, perLength[n]); err != nil {
			t.Fatalf("length %d not uniform within its span: %v", n, err)
		}
	}
}

// TestRangeSampleManyWorkerEquivalence: the chunked batch is a pure
// function of (seed, stream, k) — bitwise identical for every worker
// count, like sample.SampleMany.
func TestRangeSampleManyWorkerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	nfa := automata.RandomDFA(rng, automata.Binary(), 16, 0.5)
	ri, err := Build(nfa, 3, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ri.TotalRange().Sign() == 0 {
		t.Skip("empty range")
	}
	const k = 200
	base, err := ri.SampleMany(7, 0xABC, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != k {
		t.Fatalf("%d draws, want %d", len(base), k)
	}
	for _, workers := range []int{2, 4, 9} {
		got, err := ri.SampleMany(7, 0xABC, k, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if nfa.Alphabet().FormatWord(got[i]) != nfa.Alphabet().FormatWord(base[i]) {
				t.Fatalf("workers=%d: draw %d = %q, want %q", workers, i,
					nfa.Alphabet().FormatWord(got[i]), nfa.Alphabet().FormatWord(base[i]))
			}
		}
	}
}

// TestRangeDrawSessionZeroAlloc: a session draw consumes the rng exactly
// like Sample and performs zero heap allocations per draw — the contract
// that keeps range serving alloc-free in steady state.
func TestRangeDrawSessionZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	nfa := automata.RandomDFA(rng, automata.Binary(), 12, 0.5)
	ri, err := Build(nfa, 2, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ri.TotalRange().Sign() == 0 {
		t.Skip("empty range")
	}
	d := ri.NewDrawSession(rand.New(rand.NewSource(99)))
	ref := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		got, err := d.Sample()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ri.Sample(ref)
		if err != nil {
			t.Fatal(err)
		}
		if nfa.Alphabet().FormatWord(got) != nfa.Alphabet().FormatWord(want) {
			t.Fatalf("draw %d: session %q vs sampler %q", i,
				nfa.Alphabet().FormatWord(got), nfa.Alphabet().FormatWord(want))
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := d.Sample(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("DrawSession.Sample allocates %.1f per draw, want 0", allocs)
	}
}

// TestRangeEmptyAndDegenerate: empty unions answer ⊥ everywhere, and a
// single-length range degenerates to the per-length engine.
func TestRangeEmptyAndDegenerate(t *testing.T) {
	empty := automata.Chain(automata.Binary(), automata.Word{0, 1})
	ri, err := Build(empty, 3, 6, 1) // the chain accepts only at length 2
	if err != nil {
		t.Fatal(err)
	}
	if ri.TotalRange().Sign() != 0 {
		t.Fatalf("TotalRange = %v, want 0", ri.TotalRange())
	}
	if _, err := ri.Sample(rand.New(rand.NewSource(1))); err != ErrEmpty {
		t.Fatalf("Sample on empty range: %v, want ErrEmpty", err)
	}
	if _, err := ri.SampleMany(1, 2, 3, 2); err != ErrEmpty {
		t.Fatalf("SampleMany on empty range: %v, want ErrEmpty", err)
	}
	if _, err := ri.NewDrawSession(rand.New(rand.NewSource(1))).Sample(); err != ErrEmpty {
		t.Fatalf("DrawSession on empty range: %v, want ErrEmpty", err)
	}
	// Single-length range == the per-length index.
	single, err := Build(empty, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if single.TotalRange().Int64() != 1 {
		t.Fatalf("TotalRange = %v, want 1", single.TotalRange())
	}
	w, err := single.UnrankRange(big.NewInt(0))
	if err != nil || empty.Alphabet().FormatWord(w) != "01" {
		t.Fatalf("UnrankRange(0) = %q (%v), want 01", empty.Alphabet().FormatWord(w), err)
	}
	// ε handling: length 0 included.
	all := automata.All(automata.Binary())
	ri0, err := Build(all, 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ri0.TotalRange().Int64() != 1+2+4 {
		t.Fatalf("Σ* range total = %v, want 7", ri0.TotalRange())
	}
	w0, err := ri0.UnrankRange(big.NewInt(0))
	if err != nil || len(w0) != 0 {
		t.Fatalf("rank 0 should be ε, got %q (%v)", all.Alphabet().FormatWord(w0), err)
	}
	r, err := ri0.RankRange(automata.Word{})
	if err != nil || r.Sign() != 0 {
		t.Fatalf("RankRange(ε) = %v (%v), want 0", r, err)
	}
	// Bad build parameters are rejected.
	if _, err := Build(all, -1, 2, 1); err == nil {
		t.Fatal("negative lo accepted")
	}
	if _, err := Build(all, 3, 2, 1); err == nil {
		t.Fatal("lo > hi accepted")
	}
	eps := automata.New(automata.Binary(), 2)
	eps.AddEpsilon(0, 1)
	if _, err := Build(eps, 0, 2, 1); err == nil {
		t.Fatal("ε-automaton accepted")
	}
}

// TestReturnedIntsAreFresh: no method hands out index-owned state —
// mutating every *big.Int an index method returns and repeating the call
// gives the original value — so cached indexes can be shared without a
// do-not-mutate contract.
func TestReturnedIntsAreFresh(t *testing.T) {
	nfa, _ := automata.OverflowBoundary(2)
	const lo, n, hi = 3, 5, 6
	ri, err := Build(nfa, lo, hi, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := automata.Word{1, 0, 1, 1, 0}
	calls := map[string]func() []*big.Int{
		"TotalRange": func() []*big.Int { return []*big.Int{ri.TotalRange()} },
		"TotalAt": func() []*big.Int {
			v, _ := ri.TotalAt(n)
			return []*big.Int{v}
		},
		"FirstRankOf": func() []*big.Int {
			v, _ := ri.FirstRankOf(n)
			return []*big.Int{v}
		},
		"SubtreeSpanAt": func() []*big.Int {
			f, c, _ := ri.SubtreeSpanAt(n, []int{1, 0})
			return []*big.Int{f, c}
		},
		"RankOfChoicesAt": func() []*big.Int {
			v, _ := ri.RankOfChoicesAt(n, []int{1, 0, 1, 1, 0})
			return []*big.Int{v}
		},
		"EdgeCumAt": func() []*big.Int { return ri.EdgeCumAt(n, 2, 0) },
		"RankAt": func() []*big.Int {
			v, _ := ri.RankAt(w)
			return []*big.Int{v}
		},
		"RankRange": func() []*big.Int {
			v, _ := ri.RankRange(w)
			return []*big.Int{v}
		},
		"Rank": func() []*big.Int {
			v, _ := ri.Rank(w)
			return []*big.Int{v}
		},
		"SplitRank": func() []*big.Int {
			_, v, _ := ri.SplitRank(big.NewInt(40))
			return []*big.Int{v}
		},
	}
	for name, call := range calls {
		first := call()
		want := make([]string, len(first))
		for i, v := range first {
			if v == nil {
				t.Fatalf("%s: result %d is nil", name, i)
			}
			want[i] = v.String()
			v.SetInt64(-12345)
		}
		for i, v := range call() {
			if v.String() != want[i] {
				t.Fatalf("%s: result %d reads %v after mutating an earlier result, want %s", name, i, v, want[i])
			}
		}
	}
	// Rank, Unrank and RankAt agree on the word: the forwarders are the
	// range methods.
	r, err := ri.Rank(w)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ri.Unrank(r)
	if err != nil || nfa.Alphabet().FormatWord(back) != nfa.Alphabet().FormatWord(w) {
		t.Fatalf("Unrank(Rank(%v)) = %v, %v", w, back, err)
	}
}

// TestPerLengthAccessorBounds: the per-length accessors reject lengths
// outside the range and decisions outside a vertex's edge list, and
// EdgeCumAt is nil off the DAG.
func TestPerLengthAccessorBounds(t *testing.T) {
	nfa, _ := automata.OverflowBoundary(2)
	ri, err := Build(nfa, 3, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ri.SubtreeSpanAt(2, nil); err == nil {
		t.Fatal("SubtreeSpanAt below lo accepted")
	}
	if _, _, err := ri.SubtreeSpanAt(4, []int{0, 0, 0, 0, 0}); err == nil {
		t.Fatal("SubtreeSpanAt with a path longer than n accepted")
	}
	if _, _, err := ri.SubtreeSpanAt(4, []int{0, 2}); err == nil {
		t.Fatal("SubtreeSpanAt with an out-of-range decision accepted")
	}
	if _, err := ri.RankOfChoicesAt(4, []int{0, 1}); err == nil {
		t.Fatal("RankOfChoicesAt with a short vector accepted")
	}
	if _, err := ri.RankOfChoicesAt(4, []int{0, 1, 0, 7}); err == nil {
		t.Fatal("RankOfChoicesAt with an out-of-range decision accepted")
	}
	if _, err := ri.UnrankChoicesAt(7, big.NewInt(0)); err == nil {
		t.Fatal("UnrankChoicesAt above hi accepted")
	}
	if _, err := ri.FirstRankOf(7); err == nil {
		t.Fatal("FirstRankOf above hi accepted")
	}
	for _, c := range []struct{ n, t, q int }{{2, 0, 0}, {4, 4, 0}, {4, -1, 0}, {4, 1, 9}} {
		if cum := ri.EdgeCumAt(c.n, c.t, c.q); cum != nil {
			t.Fatalf("EdgeCumAt(%d, %d, %d) = %v, want nil", c.n, c.t, c.q, cum)
		}
	}
	if cum := ri.EdgeCumAt(4, 0, -1); len(cum) != 3 || cum[2].Int64() != 16 {
		t.Fatalf("EdgeCumAt at the start vertex = %v, want [0 8 16]", cum)
	}
}

// TestSampleDistinctAt: k distinct witnesses of one length, each a
// member, and the edge cases — k = 0, an empty length, k above the count.
func TestSampleDistinctAt(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	nfa := automata.RandomDFA(rng, automata.Binary(), 6, 0.5)
	ri, err := Build(nfa, 2, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	total, _ := ri.TotalAt(7)
	if total.Sign() == 0 {
		t.Skip("empty length")
	}
	k := int(total.Int64())
	ws, err := ri.SampleDistinctAt(7, k, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, w := range ws {
		key := nfa.Alphabet().FormatWord(w)
		if seen[key] || !nfa.Accepts(w) || len(w) != 7 {
			t.Fatalf("draw %q: repeated, non-member or wrong length", key)
		}
		seen[key] = true
	}
	if len(seen) != k {
		t.Fatalf("%d distinct draws, want %d", len(seen), k)
	}
	if _, err := ri.SampleDistinctAt(7, k+1, rng); err == nil {
		t.Fatal("more distinct witnesses than |L_n| accepted")
	}
	if ws, err := ri.SampleDistinctAt(7, 0, rng); err != nil || ws != nil {
		t.Fatalf("k = 0: %v, %v", ws, err)
	}
	if _, err := ri.SampleDistinctAt(9, 1, rng); err == nil {
		t.Fatal("length outside the range accepted")
	}
	chain := automata.Chain(automata.Binary(), automata.Word{0, 1})
	empty, err := Build(chain, 3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.SampleDistinctAt(3, 1, rng); err != ErrEmpty {
		t.Fatalf("empty length: %v, want ErrEmpty", err)
	}
}
