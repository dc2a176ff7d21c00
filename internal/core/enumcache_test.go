package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/automata"
	"repro/internal/enumerate"
	"repro/internal/instcache"
)

// mintULTokens returns, for an automaton at length n, the position three
// words into its enumeration in each UL token form: a decision cursor
// ('u'), a rank cursor ('r'), a frontier ('p') and a range cursor ('R')
// over [lo, n] mid-way through length n. They are minted on a private
// index, so minting touches no cache.
func mintULTokens(t *testing.T, nfa *automata.NFA, lo, n int) (u, r enumerate.Cursor, f enumerate.Frontier, rc enumerate.RangeCursor) {
	t.Helper()
	e, err := enumerate.NewUFA(nfa, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := e.Next(); !ok {
			t.Fatal("test automaton needs at least three words")
		}
	}
	u = e.Cursor()
	if r, err = e.RankCursor(); err != nil {
		t.Fatal(err)
	}
	f = enumerate.SuffixFrontier(u)
	rc = enumerate.RangeCursor{FP: enumerate.Fingerprint(nfa), Lo: lo, Hi: n, Cur: n, Inner: u.Token()}
	return u, r, f, rc
}

// TestForgedULTokensCostNoBuild pins the forged-token discipline on the
// index-backed resume path: for every UL token form, a forged token and
// one minted on another automaton fail through core.Instance before the
// instance resolves (and so builds) a counting index.
func TestForgedULTokensCostNoBuild(t *testing.T) {
	const lo, n = 6, 10
	rng := rand.New(rand.NewSource(71))
	in, err := New(automata.RandomDFA(rng, automata.Binary(), 12, 0.5), n, Options{Cache: instcache.New(instcache.DefaultBudget)})
	if err != nil {
		t.Fatal(err)
	}
	other := automata.RandomDFA(rng, automata.Binary(), 12, 0.5)
	u, r, f, rc := mintULTokens(t, in.Automaton(), lo, n)
	ou, or, of, orc := mintULTokens(t, other, lo, n)
	forge := func(c enumerate.Cursor) string { c.FP ^= 1; return c.Token() }
	forgeF := func(f enumerate.Frontier) string { f.FP ^= 1; return f.Token() }
	cases := []struct {
		name, token string
		ranged      bool
	}{
		{"u forged", forge(u), false},
		{"u foreign", ou.Token(), false},
		{"r forged", forge(r), false},
		{"r foreign", or.Token(), false},
		{"p forged", forgeF(f), false},
		{"p foreign", of.Token(), false},
		{"R forged envelope", enumerate.RangeCursor{FP: rc.FP ^ 1, Lo: lo, Hi: n, Cur: n, Inner: rc.Inner}.Token(), true},
		{"R forged inner", enumerate.RangeCursor{FP: rc.FP, Lo: lo, Hi: n, Cur: n, Inner: forge(u)}.Token(), true},
		{"R foreign", orc.Token(), true},
	}
	cache := in.cache
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			opts := CursorOptions{Cursor: tc.token, Workers: workers}
			var s enumerate.Session
			if tc.ranged {
				s, err = in.EnumerateRange(lo, n, opts)
			} else {
				s, err = in.Enumerate(opts)
			}
			if err == nil {
				s.Close()
				t.Fatalf("%s (workers %d): resumed a bad token", tc.name, workers)
			}
			if st := cache.Stats(); st.Builds != 0 {
				t.Fatalf("%s (workers %d): a bad token cost %d index builds (%v)", tc.name, workers, st.Builds, err)
			}
		}
	}
}

// TestSharedCachePagesOneULStream: two instances over one shared cache
// page a single UL stream alternately, each page resuming the other's
// token; the pages concatenate to the serial transcript and the whole
// stream costs one [n, n] index build.
func TestSharedCachePagesOneULStream(t *testing.T) {
	const n = 9
	rng := rand.New(rand.NewSource(72))
	dfa := automata.RandomDFA(rng, automata.Binary(), 10, 0.5)
	serial, err := New(dfa, n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Witnesses(0)
	if err != nil {
		t.Fatal(err)
	}
	cache := instcache.New(instcache.DefaultBudget)
	var replicas [2]*Instance
	for i := range replicas {
		if replicas[i], err = New(dfa, n, Options{Cache: cache}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	token := ""
	for page := 0; ; page++ {
		in := replicas[page%2]
		s, err := in.Enumerate(CursorOptions{Cursor: token, Limit: 7})
		if err != nil {
			t.Fatal(err)
		}
		words := drainSession(in, s)
		token, _ = s.Token()
		got = append(got, words...)
		if len(words) < 7 {
			break
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("alternating pages emitted %d words, serial %d (or a different order)", len(got), len(want))
	}
	if st := cache.Stats(); st.Builds != 1 {
		t.Fatalf("paging one stream over a shared cache built %d indexes, want 1: %v", st.Builds, st)
	}
}

// TestEnumerateRangeOneBuild: an EnumerateRange without a seek drains all
// its lengths on the one [lo, hi] index, not an index per length.
func TestEnumerateRangeOneBuild(t *testing.T) {
	const lo, hi = 3, 8
	cache := instcache.New(instcache.DefaultBudget)
	rng := rand.New(rand.NewSource(73))
	in, err := New(automata.RandomDFA(rng, automata.Binary(), 9, 0.5), hi, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	s, err := in.EnumerateRange(lo, hi, CursorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	words := drainSession(in, s)
	if st := cache.Stats(); st.Builds != 1 {
		t.Fatalf("range enumeration built %d indexes, want 1: %v", st.Builds, st)
	}
	if es := cache.EntryStats(); len(es) != 1 || es[0].Lo != lo || es[0].Hi != hi {
		t.Fatalf("range enumeration should use the [%d, %d] entry: %+v", lo, hi, es)
	}
	total, err := in.TotalRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(words)) != total.Int64() {
		t.Fatalf("range drained %d words, total %v", len(words), total)
	}
}

// TestULEnumerationPassesIndexByteCheck pins the byte check on the
// enumeration path: a UL session opens on the counting index, so a
// tenant whose MaxIndexBytes is below the index estimate is rejected with
// admission.ErrRejected before any build.
func TestULEnumerationPassesIndexByteCheck(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(74))
	dfa := automata.Normalize(automata.RandomDFA(rng, automata.Binary(), 10, 0.5))
	est := admission.EstimateIndexBytes(dfa.NumStates(), dfa.NumTransitions(), n)
	cache := instcache.New(instcache.DefaultBudget)
	in, err := New(dfa, n, Options{Cache: cache, Limits: &admission.Limits{MaxIndexBytes: est - 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		if _, err := in.Enumerate(CursorOptions{Workers: workers}); !errors.Is(err, admission.ErrRejected) {
			t.Fatalf("workers %d: enumeration under a byte cap below the estimate: %v, want ErrRejected", workers, err)
		}
	}
	if st := cache.Stats(); st.Builds != 0 {
		t.Fatalf("a rejected enumeration built %d indexes", st.Builds)
	}
	ok, err := New(dfa, n, Options{Cache: cache, Limits: &admission.Limits{MaxIndexBytes: est}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ok.Enumerate(CursorOptions{Limit: 2})
	if err != nil {
		t.Fatalf("enumeration at the estimate should be admitted: %v", err)
	}
	s.Close()
}

// pageToken keeps BenchmarkEnumPage's result live.
var pageToken string

// BenchmarkEnumPage times one enum page in the shape of the serving
// benchmark's enum-pages workload, request preparation aside (that is
// BenchmarkPrepare): resume an 8-word page at n = 24 from a mid-stream
// token through a shared cache, drain it and mint the next token,
// cycling over 64 ranked-shaped DFAs. Run it with -benchmem and a
// -benchtime that is a multiple of 64 for the set's mean.
func BenchmarkEnumPage(b *testing.B) {
	const n, page = 24, 8
	texts := rankedShaped(64, 11)
	cache := instcache.New(instcache.DefaultBudget)
	ins := make([]*Instance, len(texts))
	tokens := make([]string, len(texts))
	for i, text := range texts {
		nfa, err := automata.UnmarshalString(text)
		if err != nil {
			b.Fatal(err)
		}
		if ins[i], err = New(nfa, n, Options{Cache: cache}); err != nil {
			b.Fatal(err)
		}
		s, err := ins[i].Enumerate(CursorOptions{Limit: page})
		if err != nil {
			b.Fatal(err)
		}
		if len(drainSession(ins[i], s)) != page {
			b.Fatalf("tenant %d has fewer than %d words at length %d", i, page, n)
		}
		tokens[i], _ = s.Token()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := ins[i%len(ins)]
		s, err := in.Enumerate(CursorOptions{Cursor: tokens[i%len(tokens)], Limit: page})
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
		pageToken, _ = s.Token()
	}
}
