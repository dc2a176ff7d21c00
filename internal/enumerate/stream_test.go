package enumerate

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/automata"
	"repro/internal/leakcheck"
)

// collectStream drains a stream into formatted strings.
func collectStream(alpha *automata.Alphabet, st *Stream) []string {
	defer st.Close()
	var out []string
	for {
		w, ok := st.Next()
		if !ok {
			return out
		}
		out = append(out, alpha.FormatWord(w))
	}
}

// TestUFAShardCompleteness: for random UFAs, the union of the shard cells
// (opened and drained serially) equals the serial enumeration — no word
// lost, none duplicated — and the concatenation in shard order IS the
// serial order.
func TestUFAShardCompleteness(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := automata.RandomDFA(rng, automata.Binary(), 2+rng.Intn(5), 0.4)
		for length := 0; length <= 5; length++ {
			tmpl, err := NewUFA(n, length)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := NewUFA(n, length)
			if err != nil {
				t.Fatal(err)
			}
			want := Collect(n.Alphabet(), serial, 0)
			for _, target := range []int{1, 2, 3, 7, 64} {
				shards := tmpl.Shards(target)
				var got []string
				for _, s := range shards {
					se, err := tmpl.OpenShardAt(s, nil)
					if err != nil {
						t.Fatalf("open shard %v: %v", s.Prefix(), err)
					}
					got = append(got, Collect(n.Alphabet(), se, 0)...)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d length %d target %d: %d outputs across %d shards, want %d",
						trial, length, target, len(got), len(shards), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d length %d target %d: output %d = %q, want %q",
							trial, length, target, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestNFAShardCompleteness: the same property for flashlight cells on
// random ambiguous NFAs.
func TestNFAShardCompleteness(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := automata.Random(rng, automata.Binary(), 2+rng.Intn(5), 0.3, 0.4)
		for length := 0; length <= 5; length++ {
			tmpl, err := NewNFA(n, length)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := NewNFA(n, length)
			if err != nil {
				t.Fatal(err)
			}
			want := Collect(n.Alphabet(), serial, 0)
			for _, target := range []int{1, 2, 5, 32} {
				shards := tmpl.Shards(target)
				var got []string
				for _, s := range shards {
					se, err := tmpl.OpenShardAt(s, nil)
					if err != nil {
						t.Fatalf("open shard %v: %v", s.Prefix(), err)
					}
					got = append(got, Collect(n.Alphabet(), se, 0)...)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d length %d target %d: %d outputs across %d shards, want %d",
						trial, length, target, len(got), len(shards), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d length %d target %d: output %d = %q, want %q",
							trial, length, target, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestStreamOrderedMatchesSerial: the parallel ordered merge is bitwise
// identical to serial enumeration, for both classes and several worker
// counts. Run with -race in CI.
func TestStreamOrderedMatchesSerial(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 8; trial++ {
		nfa := automata.Random(rng, automata.Binary(), 3+rng.Intn(4), 0.3, 0.4)
		serial, err := NewNFA(nfa, 6)
		if err != nil {
			t.Fatal(err)
		}
		want := Collect(nfa.Alphabet(), serial, 0)
		for _, workers := range []int{1, 2, 4} {
			st, err := NewNFAStream(nfa, 6, StreamOptions{Workers: workers, Shards: 9, Ordered: true})
			if err != nil {
				t.Fatal(err)
			}
			got := collectStream(nfa.Alphabet(), st)
			if st.Err() != nil {
				t.Fatal(st.Err())
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d workers %d: %d outputs, want %d", trial, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d workers %d: output %d = %q, want %q", trial, workers, i, got[i], want[i])
				}
			}
		}
		dfa := automata.RandomDFA(rng, automata.Binary(), 3+rng.Intn(4), 0.5)
		us, err := NewUFA(dfa, 6)
		if err != nil {
			t.Fatal(err)
		}
		want = Collect(dfa.Alphabet(), us, 0)
		st, err := NewUFAStream(dfa, 6, StreamOptions{Workers: 3, Shards: 8, Ordered: true})
		if err != nil {
			t.Fatal(err)
		}
		got := collectStream(dfa.Alphabet(), st)
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

// TestStreamUnorderedCompleteness: throughput mode yields the same multiset
// of words (order free).
func TestStreamUnorderedCompleteness(t *testing.T) {
	leakcheck.Check(t)
	nfa := automata.SubsetBlowup(3)
	serial, err := NewNFA(nfa, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := Collect(nfa.Alphabet(), serial, 0)
	st, err := NewNFAStream(nfa, 6, StreamOptions{Workers: 4, Shards: 12})
	if err != nil {
		t.Fatal(err)
	}
	got := collectStream(nfa.Alphabet(), st)
	sort.Strings(got)
	sorted := append([]string(nil), want...)
	sort.Strings(sorted)
	if len(got) != len(sorted) {
		t.Fatalf("%d outputs, want %d", len(got), len(sorted))
	}
	for i := range got {
		if got[i] != sorted[i] {
			t.Fatalf("output %d = %q, want %q", i, got[i], sorted[i])
		}
	}
}

// TestStreamEarlyClose: closing a stream mid-drain stops the workers and
// further Next calls return false. Run with -race in CI.
func TestStreamEarlyClose(t *testing.T) {
	leakcheck.Check(t)
	nfa := automata.All(automata.Binary())
	st, err := NewNFAStream(nfa, 18, StreamOptions{Workers: 4, Shards: 16, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, ok := st.Next(); !ok {
			t.Fatal("expected more outputs")
		}
	}
	st.Close()
	if _, ok := st.Next(); ok {
		t.Fatal("Next after Close must report exhaustion")
	}
	st.Close() // idempotent
}

// TestStreamEmptyAndEpsilon: degenerate ranges stream correctly.
func TestStreamEmptyAndEpsilon(t *testing.T) {
	alpha := automata.Binary()
	acc := automata.New(alpha, 1)
	acc.SetFinal(0, true)
	st, err := NewNFAStream(acc, 0, StreamOptions{Workers: 2, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := collectStream(alpha, st); len(got) != 1 || got[0] != "" {
		t.Fatalf("ε stream = %v", got)
	}
	empty := automata.Chain(alpha, automata.Word{0, 1})
	st, err = NewUFAStream(empty, 7, StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := collectStream(alpha, st); len(got) != 0 {
		t.Fatalf("empty stream = %v", got)
	}
}

// TestStreamWordReuse: the word returned by Stream.Next is valid until the
// following call — retaining it across calls without a copy is a bug the
// pool makes visible.
func TestStreamWordReuse(t *testing.T) {
	nfa := automata.All(automata.Binary())
	st, err := NewNFAStream(nfa, 4, StreamOptions{Workers: 2, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w, ok := st.Next()
	if !ok {
		t.Fatal("expected output")
	}
	first := nfa.Alphabet().FormatWord(w)
	if first != "0000" {
		t.Fatalf("first ordered output %q", first)
	}
}

// TestCollectWordsDeepCopies: CollectWords outputs survive later Next
// calls, unlike raw Next slices.
func TestCollectWordsDeepCopies(t *testing.T) {
	nfa := automata.All(automata.Binary())
	e, err := NewNFA(nfa, 4)
	if err != nil {
		t.Fatal(err)
	}
	words := CollectWords(e, 3)
	if len(words) != 3 {
		t.Fatalf("collected %d", len(words))
	}
	// The enumerator has moved on; the collected words must not have.
	if got := nfa.Alphabet().FormatWord(words[0]); got != "0000" {
		t.Fatalf("words[0] = %q after further iteration", got)
	}
	if got := nfa.Alphabet().FormatWord(words[2]); got != "0010" {
		t.Fatalf("words[2] = %q", got)
	}
}

// TestShardsCoverTargets: shard counts grow toward the target when the
// language is rich enough, and every shard opens.
func TestShardsCoverTargets(t *testing.T) {
	nfa := automata.All(automata.Binary())
	e, err := NewNFA(nfa, 10)
	if err != nil {
		t.Fatal(err)
	}
	shards := e.Shards(16)
	if len(shards) < 16 {
		t.Fatalf("got %d shards, want ≥ 16", len(shards))
	}
	for _, s := range shards {
		if _, err := e.OpenShardAt(s, nil); err != nil {
			t.Fatalf("open %v: %v", s.Prefix(), err)
		}
	}
}

// epsilonOnly is the one-state automaton whose start state is final: its
// only word of length 0 is ε, and it has none of any other length.
func epsilonOnly() *automata.NFA {
	acc := automata.New(automata.Binary(), 1)
	acc.SetFinal(0, true)
	return acc
}

// TestResumeFrontierChainAtLengthZero: at n = 0 the one position is the
// empty word, so "ε was delivered" must stay distinct from "nothing
// delivered" in every frontier token. A serial frontier chain and a
// parallel stream that have delivered ε mint a token that resumes to
// nothing, and it differs from the fresh token they were opened with.
func TestResumeFrontierChainAtLengthZero(t *testing.T) {
	acc := epsilonOnly()
	opts := StreamOptions{Workers: 2, Ordered: true}
	for _, open := range []func(*automata.NFA, int, StreamOptions) (*Stream, error){NewUFAStream, NewNFAStream} {
		st, err := open(acc, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := st.Token()
		st.Close()
		chain, err := Resume(acc, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if w, ok := chain.Next(); !ok || len(w) != 0 {
			t.Fatalf("chain at n = 0 gave %v, %v; want ε", w, ok)
		}
		after, _ := chain.Token()
		if after == fresh {
			t.Fatalf("chain mints its fresh token %s after delivering ε", fresh)
		}
		if st, err = open(acc, 0, opts); err != nil {
			t.Fatal(err)
		}
		if w, ok := st.Next(); !ok || len(w) != 0 {
			t.Fatalf("stream at n = 0 gave %v, %v; want ε", w, ok)
		}
		streamed, _ := st.Token()
		st.Close()
		for _, tok := range []string{after, streamed} {
			again, err := Resume(acc, tok)
			if err != nil {
				t.Fatal(err)
			}
			if w, ok := again.Next(); ok {
				t.Fatalf("token %s minted after ε resumes to %v", tok, w)
			}
		}
	}
}

// TestStreamFromMidFrontierAtLengthZero: a length-0 frontier segment with
// a position (ε delivered) holds no undelivered word, whether it is
// drained serially or in parallel.
func TestStreamFromMidFrontierAtLengthZero(t *testing.T) {
	acc := epsilonOnly()
	ue, err := NewUFA(acc, 0)
	if err != nil {
		t.Fatal(err)
	}
	ne, err := NewNFA(acc, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []interface {
		template
		ResumeFrontier(Frontier) (Session, error)
		StreamFrom(Frontier, StreamOptions) (*Stream, error)
	}{ue, ne} {
		f := tm.frontier()
		f.Segs = []FrontierSeg{{Pos: []int{}}}
		serial, err := tm.ResumeFrontier(f)
		if err != nil {
			t.Fatal(err)
		}
		if w, ok := serial.Next(); ok {
			t.Fatalf("kind %c: ResumeFrontier re-emits %v", f.Kind, w)
		}
		st, err := tm.StreamFrom(f, StreamOptions{Workers: 2, Ordered: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := collectStream(acc.Alphabet(), st); len(got) != 0 {
			t.Fatalf("kind %c: StreamFrom re-emits %q", f.Kind, got)
		}
		// The frontier survives its own token.
		g, err := ParseFrontier(f.Token())
		if err != nil || len(g.Segs) != 1 || g.Segs[0].Pos == nil {
			t.Fatalf("kind %c: frontier round trip %+v, %v", f.Kind, g, err)
		}
	}
}
