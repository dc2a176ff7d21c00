package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/automata"
	"repro/internal/instcache"
	"repro/internal/limb"
)

// cacheTestDFA is the shared deterministic family for the cache tests: a
// random complete DFA (RelationUL by construction) plus a nontrivial
// relabelling of it.
func cacheTestDFA(t *testing.T, seed int64, states int) (*automata.NFA, *automata.NFA) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := automata.RandomDFA(rng, automata.Binary(), states, 0.5)
	perm := rng.Perm(n.NumStates())
	if perm[0] == 0 && perm[1] == 1 {
		perm[0], perm[1] = perm[1], perm[0]
	}
	return n, automata.Relabel(n, perm)
}

// transcript is every observable the issue's correctness bar names:
// counts, sample streams, serial / rank / range tokens, and resumed
// continuations, all as formatted strings so comparison is bitwise.
type transcript struct {
	CountExact   string
	CountFloat   string
	Ranks        []string
	Unranks      []string
	Samples      []string
	Distinct     []string
	Batch        []string
	EnumWords    []string
	EnumTokens   []string // el1: serial tokens, one per step
	SeekWords    []string
	SeekToken    string // el1:r: rank token
	ResumeWords  []string
	RangeTotal   string
	RangeWords   []string
	RangeTokens  []string // el1:R: range tokens, one per step
	RangeResume  []string
	RangeSamples []string
	RangeRanks   []string
	ParallelEnum []string
}

func harvest(t *testing.T, in *Instance, lo, hi int) transcript {
	t.Helper()
	var tr transcript
	c, err := in.CountExact(0)
	if err != nil {
		t.Fatalf("CountExact: %v", err)
	}
	tr.CountExact = c.String()
	cf, exact, err := in.Count()
	if err != nil || !exact {
		t.Fatalf("Count: exact=%v err=%v", exact, err)
	}
	tr.CountFloat = cf.Text('g', 30)

	total := new(big.Int).Set(c)
	probe := []int64{0, 1}
	if total.Cmp(big.NewInt(5)) > 0 {
		probe = append(probe, total.Int64()/2, total.Int64()-1)
	}
	for _, r := range probe {
		w, err := in.Unrank(big.NewInt(r))
		if err != nil {
			t.Fatalf("Unrank(%d): %v", r, err)
		}
		tr.Unranks = append(tr.Unranks, in.FormatWord(w))
		rk, err := in.Rank(w)
		if err != nil {
			t.Fatalf("Rank: %v", err)
		}
		tr.Ranks = append(tr.Ranks, rk.String())
	}
	for i := 0; i < 5; i++ {
		w, err := in.Sample()
		if err != nil {
			t.Fatalf("Sample: %v", err)
		}
		tr.Samples = append(tr.Samples, in.FormatWord(w))
	}
	k := 4
	if total.Cmp(big.NewInt(int64(k))) < 0 {
		k = int(total.Int64())
	}
	dws, err := in.SampleDistinct(k)
	if err != nil {
		t.Fatalf("SampleDistinct: %v", err)
	}
	for _, w := range dws {
		tr.Distinct = append(tr.Distinct, in.FormatWord(w))
	}
	bws, err := in.SampleManyParallel(6, 3)
	if err != nil {
		t.Fatalf("SampleManyParallel: %v", err)
	}
	for _, w := range bws {
		tr.Batch = append(tr.Batch, in.FormatWord(w))
	}

	// Serial enumeration with a token minted at every step.
	s, err := in.Enumerate(CursorOptions{Limit: 8})
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	var midToken string
	for i := 0; ; i++ {
		w, ok := s.Next()
		if !ok {
			break
		}
		tr.EnumWords = append(tr.EnumWords, in.FormatWord(w))
		tok, ok := s.Token()
		if !ok {
			t.Fatal("serial session cannot mint a token")
		}
		tr.EnumTokens = append(tr.EnumTokens, tok)
		if i == 2 {
			midToken = tok
		}
	}
	s.Close()
	if midToken != "" {
		rs, err := in.EnumerateFrom(midToken)
		if err != nil {
			t.Fatalf("EnumerateFrom: %v", err)
		}
		for i := 0; i < 4; i++ {
			w, ok := rs.Next()
			if !ok {
				break
			}
			tr.ResumeWords = append(tr.ResumeWords, in.FormatWord(w))
		}
		rs.Close()
	}

	// Rank-seeked session (kind-'r' token path).
	seek := new(big.Int).Div(total, big.NewInt(2))
	ss, err := in.Enumerate(CursorOptions{SeekRank: seek, Limit: 4})
	if err != nil {
		t.Fatalf("Enumerate(SeekRank): %v", err)
	}
	if tok, ok := ss.Token(); ok {
		tr.SeekToken = tok
	}
	for {
		w, ok := ss.Next()
		if !ok {
			break
		}
		tr.SeekWords = append(tr.SeekWords, in.FormatWord(w))
	}
	ss.Close()

	// Ordered parallel enumeration must be bitwise the serial order.
	ps, err := in.Enumerate(CursorOptions{Workers: 3, Ordered: true, Limit: 8})
	if err != nil {
		t.Fatalf("Enumerate(parallel): %v", err)
	}
	for {
		w, ok := ps.Next()
		if !ok {
			break
		}
		tr.ParallelEnum = append(tr.ParallelEnum, in.FormatWord(w))
	}
	if err := ps.Err(); err != nil {
		t.Fatalf("parallel session: %v", err)
	}
	ps.Close()

	// Ranged access over [lo, hi].
	rt, err := in.TotalRange(lo, hi)
	if err != nil {
		t.Fatalf("TotalRange: %v", err)
	}
	tr.RangeTotal = rt.String()
	rs, err := in.EnumerateRange(lo, hi, CursorOptions{Limit: 10})
	if err != nil {
		t.Fatalf("EnumerateRange: %v", err)
	}
	var rangeMid string
	for i := 0; ; i++ {
		w, ok := rs.Next()
		if !ok {
			break
		}
		tr.RangeWords = append(tr.RangeWords, in.FormatWord(w))
		tok, ok := rs.Token()
		if !ok {
			t.Fatal("range session cannot mint a token")
		}
		tr.RangeTokens = append(tr.RangeTokens, tok)
		if i == 3 {
			rangeMid = tok
		}
	}
	rs.Close()
	if rangeMid != "" {
		rr, err := in.EnumerateRangeFrom(rangeMid, CursorOptions{Limit: 4})
		if err != nil {
			t.Fatalf("EnumerateRangeFrom: %v", err)
		}
		for {
			w, ok := rr.Next()
			if !ok {
				break
			}
			tr.RangeResume = append(tr.RangeResume, in.FormatWord(w))
		}
		rr.Close()
	}
	for i := 0; i < 4; i++ {
		w, err := in.SampleRange(lo, hi)
		if err != nil {
			t.Fatalf("SampleRange: %v", err)
		}
		tr.RangeSamples = append(tr.RangeSamples, in.FormatWord(w))
	}
	if rt.Sign() > 0 {
		for _, r := range []int64{0, rt.Int64() - 1} {
			w, err := in.UnrankRange(lo, hi, big.NewInt(r))
			if err != nil {
				t.Fatalf("UnrankRange(%d): %v", r, err)
			}
			gr, err := in.RankRange(lo, hi, w)
			if err != nil {
				t.Fatalf("RankRange: %v", err)
			}
			tr.RangeRanks = append(tr.RangeRanks, in.FormatWord(w)+"@"+gr.String())
		}
	}
	return tr
}

// TestCacheHitBitwiseEqualTranscript is the issue's correctness bar: every
// count, sample stream, el1: / el1:r: / el1:R: token, and resumed
// continuation minted through a cached index must be bitwise what a fresh
// uncached build produces — at the natural limb width ("fast-tier") and
// with the width forced to three limbs ("forced-big-tier", the wide
// arithmetic that replaced the big.Int tier), both for an exact re-query
// and for an isomorphic relabelling served from the same entry.
func TestCacheHitBitwiseEqualTranscript(t *testing.T) {
	const length, lo, hi = 8, 2, 8
	for _, tier := range []struct {
		name  string
		width int
	}{{"fast-tier", 1}, {"forced-big-tier", 3}} {
		t.Run(tier.name, func(t *testing.T) {
			defer limb.ForceWidth(limb.ForceWidth(tier.width))
			n, r := cacheTestDFA(t, 41, 12)
			cache := instcache.New(instcache.DefaultBudget)

			warm, err := New(n, length, Options{Seed: 7, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			warmTr := harvest(t, warm, lo, hi)
			warmBuilds := cache.Stats().Builds

			for _, tc := range []struct {
				name string
				aut  *automata.NFA
			}{{"same-automaton", n}, {"isomorphic-relabelling", r}} {
				t.Run(tc.name, func(t *testing.T) {
					cached, err := New(tc.aut, length, Options{Seed: 7, Cache: cache})
					if err != nil {
						t.Fatal(err)
					}
					cachedTr := harvest(t, cached, lo, hi)
					if got := cache.Stats().Builds; got != warmBuilds {
						t.Fatalf("hit path triggered %d extra builds", got-warmBuilds)
					}

					fresh, err := New(tc.aut, length, Options{Seed: 7})
					if err != nil {
						t.Fatal(err)
					}
					freshTr := harvest(t, fresh, lo, hi)
					if !reflect.DeepEqual(cachedTr, freshTr) {
						t.Fatalf("cached transcript diverges from fresh build:\ncached: %+v\nfresh:  %+v", cachedTr, freshTr)
					}
					// Also language-level equality against the warm
					// instance (tokens embed the instance's own automaton
					// fingerprint, so only the word-level fields compare).
					if cachedTr.CountExact != warmTr.CountExact ||
						!reflect.DeepEqual(cachedTr.EnumWords, warmTr.EnumWords) ||
						!reflect.DeepEqual(cachedTr.Unranks, warmTr.Unranks) ||
						cachedTr.RangeTotal != warmTr.RangeTotal ||
						!reflect.DeepEqual(cachedTr.RangeWords, warmTr.RangeWords) {
						t.Fatal("cached transcript diverges from the entry's builder at word level")
					}
				})
			}
		})
	}
}

// TestCacheHitServesEveryWidth: the limb width is not part of a cache
// entry's identity — an index built at one limb serves a later query made
// with the width forced to three, and that query's transcript is bitwise
// what a fresh build at three limbs produces.
func TestCacheHitServesEveryWidth(t *testing.T) {
	const length, lo, hi = 6, 2, 6
	n, _ := cacheTestDFA(t, 42, 10)
	cache := instcache.New(instcache.DefaultBudget)
	defer limb.ForceWidth(limb.ForceWidth(1))
	warm, err := New(n, length, Options{Seed: 7, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	harvest(t, warm, lo, hi)
	builds := cache.Stats().Builds
	limb.ForceWidth(3)
	cached, err := New(n, length, Options{Seed: 7, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	cachedTr := harvest(t, cached, lo, hi)
	if got := cache.Stats().Builds; got != builds {
		t.Fatalf("a query at another width rebuilt %d indexes", got-builds)
	}
	fresh, err := New(n, length, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if freshTr := harvest(t, fresh, lo, hi); !reflect.DeepEqual(cachedTr, freshTr) {
		t.Fatalf("cached transcript diverges from a fresh three-limb build:\ncached: %+v\nfresh:  %+v", cachedTr, freshTr)
	}
}

// TestConcurrentInstancesShareOneCacheBuild: N instances over relabellings
// of one DFA race their first ranked query through a shared cache —
// exactly one index build runs, everyone gets bitwise-equal answers.
func TestConcurrentInstancesShareOneCacheBuild(t *testing.T) {
	n, _ := cacheTestDFA(t, 43, 16)
	cache := instcache.New(instcache.DefaultBudget)
	const workers = 8
	rng := rand.New(rand.NewSource(44))
	insts := make([]*Instance, workers)
	for i := range insts {
		aut := n
		if i > 0 {
			aut = automata.Relabel(n, rng.Perm(n.NumStates()))
		}
		in, err := New(aut, 10, Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = in
	}
	var wg sync.WaitGroup
	words := make([]string, workers)
	errs := make([]error, workers)
	var start sync.WaitGroup
	start.Add(1)
	for i := range insts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			w, err := insts[i].Unrank(big.NewInt(5))
			if err != nil {
				errs[i] = err
				return
			}
			words[i] = insts[i].FormatWord(w)
		}(i)
	}
	start.Done()
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("instance %d: %v", i, errs[i])
		}
		if words[i] != words[0] {
			t.Fatalf("instance %d unranked %q, instance 0 %q", i, words[i], words[0])
		}
	}
	if st := cache.Stats(); st.Builds != 1 {
		t.Fatalf("want exactly one shared build, got %+v", st)
	}
}

// TestPrivateCacheBoundsRangeRetention replaces the old rangeIdxCacheCap
// assertion: with no shared cache, range indexes are retained in a
// byte-budgeted private cache — alternating ranges still get served, and
// the retained bytes never exceed the default budget.
func TestPrivateCacheBoundsRangeRetention(t *testing.T) {
	n, _ := cacheTestDFA(t, 45, 10)
	in, err := New(n, 12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for pass := 0; pass < 2; pass++ {
		for lo := 0; lo < 6; lo++ {
			total, err := in.TotalRange(lo, lo+6)
			if err != nil {
				t.Fatalf("TotalRange(%d,%d): %v", lo, lo+6, err)
			}
			key := fmt.Sprintf("%d-%d", lo, lo+6)
			if pass == 0 {
				want[key] = total.String()
			} else if want[key] != total.String() {
				t.Fatalf("range %s: pass-2 total %s != pass-1 total %s", key, total, want[key])
			}
		}
	}
}

// TestCachedIndexAttachesAcrossRelabellings pins the attach contract:
// instances canonicalize deterministic automata at New, so a relabelled
// instance is served from the same entry AND its enumeration sessions
// walk the cached index — the index is the instance's own DAG.
func TestCachedIndexAttachesAcrossRelabellings(t *testing.T) {
	n, r := cacheTestDFA(t, 46, 10)
	cache := instcache.New(instcache.DefaultBudget)
	a, err := New(n, 6, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Unrank(big.NewInt(0)); err != nil {
		t.Fatal(err)
	}
	b, err := New(r, 6, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !automata.Equal(a.Automaton(), b.Automaton()) {
		t.Fatal("canonicalization should collapse relabellings to one automaton")
	}
	if _, err := b.Unrank(big.NewInt(0)); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Builds != 1 {
		t.Fatalf("relabelled instance should hit: %+v", st)
	}
	ia, err := a.index(nil, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := b.index(nil, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if ia != ib {
		t.Fatal("both instances should resolve the same frozen index")
	}
	total, _ := ia.TotalAt(6)
	e, err := b.Enumerate(CursorOptions{SeekRank: new(big.Int).Sub(total, big.NewInt(1))})
	if err != nil {
		t.Fatalf("relabelled instance should open on the shared index: %v", err)
	}
	if st := cache.Stats(); st.Builds != 1 {
		t.Fatalf("the session should open on the cached index: %+v", st)
	}
	last, ok := e.Next()
	want, err := b.Unrank(new(big.Int).Sub(total, big.NewInt(1)))
	if !ok || err != nil || b.FormatWord(last) != b.FormatWord(want) {
		t.Fatalf("seek through the shared index emitted %v, want %v (%v)", last, want, err)
	}
}
