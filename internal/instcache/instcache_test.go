package instcache

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/automata"
	"repro/internal/faultinject"
	"repro/internal/leakcheck"
	"repro/internal/lengthrange"
)

func testDFA(t testing.TB, seed int64, states int) *automata.NFA {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return automata.Trim(automata.RandomDFA(rng, automata.Binary(), states, 0.5))
}

// buildAt builds the single-length index [length, length].
func buildAt(n *automata.NFA, length int) func(context.Context) (*lengthrange.RangeIndex, error) {
	return func(ctx context.Context) (*lengthrange.RangeIndex, error) {
		return lengthrange.BuildCtx(ctx, n, length, length, 1)
	}
}

// stub returns a distinct placeholder index: the cache never reads an
// index, it only stores and hands out the pointer, so the white-box tests
// compare identities.
func stub() *lengthrange.RangeIndex { return new(lengthrange.RangeIndex) }

// peekLocked returns the entry a lookup of key over [lo, hi] would use, or
// nil when the cache holds none; white-box, for the handoff tests' flight
// peeking. The caller holds c.mu.
func peekLocked(c *Cache, key *Key, lo, hi int) *entry {
	for _, e := range c.entries[bucket{pre: key.pre, lo: lo, hi: hi}] {
		if automata.Equal(key.norm, e.norm) {
			return e
		}
	}
	return nil
}

// waitRefs polls until the entry's flight has the given waiter count; the
// white-box peek is what makes the handoff tests deterministic.
func waitRefs(t *testing.T, c *Cache, key *Key, lo, hi, want int) *flight {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		e := peekLocked(c, key, lo, hi)
		var f *flight
		if e != nil {
			f = e.flight
		}
		if f != nil && f.refs == want {
			c.mu.Unlock()
			return f
		}
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("flight never reached %d waiters", want)
	return nil
}

// TestUFAIndexHitIsSameIndex: the single-length form (kept for the
// serving benchmark) caches like any range.
func TestUFAIndexHitIsSameIndex(t *testing.T) {
	c := New(DefaultBudget)
	n := testDFA(t, 1, 8)
	key := KeyFor(n)
	idx1, hit1, err := c.UFAIndex(nil, key, 6, 100, buildAt(n, 6))
	if err != nil || hit1 {
		t.Fatalf("first lookup: hit=%v err=%v", hit1, err)
	}
	idx2, hit2, err := c.UFAIndex(nil, key, 6, 100, buildAt(n, 6))
	if err != nil || !hit2 {
		t.Fatalf("second lookup: hit=%v err=%v", hit2, err)
	}
	if idx1 != idx2 {
		t.Fatal("hit returned a different index pointer")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Builds != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRelabelledDFASharesEntryWithoutReminimizing(t *testing.T) {
	c := New(DefaultBudget)
	n := testDFA(t, 2, 10)
	perm := rand.New(rand.NewSource(3)).Perm(n.NumStates())
	r := automata.Relabel(n, perm)

	kn, kr := KeyFor(n), KeyFor(r)
	// Normalization absorbs the relabelling: both keys identify one
	// byte-identical normal form, down to the cheap pre-hash.
	if kn.Pre() != kr.Pre() {
		t.Fatal("relabelled DFA keys should share the structural pre-hash")
	}
	if !automata.Equal(kn.Norm(), kr.Norm()) {
		t.Fatal("relabelled DFA keys should share the normal form")
	}

	if _, hit, err := c.RangeIndex(nil, kn, 5, 5, 100, buildAt(kn.Norm(), 5)); err != nil || hit {
		t.Fatalf("cold lookup: hit=%v err=%v", hit, err)
	}
	idx, hit, err := c.RangeIndex(nil, kr, 5, 5, 100, buildAt(kr.Norm(), 5))
	if err != nil || !hit {
		t.Fatalf("relabelled lookup should hit: hit=%v err=%v", hit, err)
	}
	if idx == nil {
		t.Fatal("nil index on hit")
	}
	st := c.Stats()
	if st.Builds != 1 || st.Entries != 1 {
		t.Fatalf("want exactly one build and one entry, got %+v", st)
	}
	// The relabelled lookup resolved to the entry itself: the cache files
	// nothing per automaton beside it.
	if len(c.entries) != 1 || len(c.entries[bucket{pre: kn.Pre(), lo: 5, hi: 5}]) != 1 {
		t.Fatalf("want one bucket holding one entry, got %d buckets", len(c.entries))
	}
}

func TestNondeterministicRelabellingsGetSeparateEntries(t *testing.T) {
	c := New(DefaultBudget)
	// A nondeterministic automaton and a nontrivial relabelling of it.
	n := automata.New(automata.Binary(), 3)
	n.SetStart(0)
	n.AddTransition(0, 0, 1)
	n.AddTransition(0, 0, 2)
	n.AddTransition(1, 1, 1)
	n.AddTransition(2, 0, 2)
	n.SetFinal(1, true)
	n.SetFinal(2, true)
	r := automata.Relabel(n, []int{0, 2, 1})

	if _, _, err := c.RangeIndex(nil, KeyFor(n), 4, 4, 50, buildAt(n, 4)); err != nil {
		t.Fatal(err)
	}
	_, hit, err := c.RangeIndex(nil, KeyFor(r), 4, 4, 50, buildAt(r, 4))
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("relabelled nondeterministic automaton must not share an entry")
	}
	if st := c.Stats(); st.Builds != 2 {
		t.Fatalf("want two builds, got %d", st.Builds)
	}
}

// TestSingleLengthAndRangeShareEntry: a single length is the range
// [n, n], so a single-length lookup and a range lookup at [n, n] for one
// key resolve to one entry — the same index, built once.
func TestSingleLengthAndRangeShareEntry(t *testing.T) {
	c := New(DefaultBudget)
	n := testDFA(t, 5, 8)
	key := KeyFor(n)
	single, hit, err := c.UFAIndex(nil, key, 4, 50, buildAt(n, 4))
	if err != nil || hit {
		t.Fatalf("single length: hit=%v err=%v", hit, err)
	}
	ri, hit, err := c.RangeIndex(nil, key, 4, 4, 50, func(ctx context.Context) (*lengthrange.RangeIndex, error) {
		return lengthrange.BuildCtx(ctx, key.Norm(), 4, 4, 1)
	})
	if err != nil || !hit {
		t.Fatalf("range [n, n] should hit the single-length entry: hit=%v err=%v", hit, err)
	}
	if ri != single {
		t.Fatal("single-length and [n, n] lookups returned different indexes")
	}
	if st := c.Stats(); st.Builds != 1 || st.Entries != 1 {
		t.Fatalf("want one build and one entry, got %+v", st)
	}
	es := c.EntryStats()
	if len(es) != 1 || es[0].Lo != 4 || es[0].Hi != 4 || es[0].Pre != key.Pre() || es[0].States != key.Norm().NumStates() {
		t.Fatalf("entry stats: %+v", es)
	}
}

func TestConcurrentSameKeySingleBuild(t *testing.T) {
	leakcheck.Check(t)
	c := New(DefaultBudget)
	n := testDFA(t, 6, 12)
	var calls atomic.Int64
	const waiters = 16
	var start, wg sync.WaitGroup
	start.Add(1)
	results := make([]any, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			// Each goroutine builds its own Key, as separate instances would.
			idx, _, err := c.RangeIndex(context.Background(), KeyFor(n), 8, 8, 100, func(ctx context.Context) (*lengthrange.RangeIndex, error) {
				calls.Add(1)
				time.Sleep(2 * time.Millisecond) // widen the dedup window
				return buildAt(n, 8)(ctx)
			})
			results[i], errs[i] = idx, err
		}(i)
	}
	start.Done()
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatal("waiters received different indexes")
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("want exactly one build invocation, got %d", got)
	}
	if st := c.Stats(); st.Builds != 1 {
		t.Fatalf("want Builds=1, got %+v", st)
	}
}

func TestConcurrentCancelledLeaderHandsOffWithoutRebuild(t *testing.T) {
	leakcheck.Check(t)
	c := New(DefaultBudget)
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	value := stub()
	build := func(ctx context.Context) (*lengthrange.RangeIndex, error) {
		calls.Add(1)
		close(started)
		select {
		case <-release:
			return value, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	key := KeyFor(testDFA(t, 7, 6))

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.RangeIndex(leaderCtx, key, 3, 3, 10, build)
		leaderErr <- err
	}()
	<-started
	waitRefs(t, c, key, 3, 3, 1)

	followerVal := make(chan any, 1)
	go func() {
		v, _, err := c.RangeIndex(context.Background(), key, 3, 3, 10, build)
		if err != nil {
			followerVal <- err
		} else {
			followerVal <- v
		}
	}()
	waitRefs(t, c, key, 3, 3, 2)

	// Cancel the leader mid-build: the flight must keep running for the
	// follower — no second build invocation.
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: want context.Canceled, got %v", err)
	}
	close(release)
	switch v := (<-followerVal).(type) {
	case *lengthrange.RangeIndex:
		if v != value {
			t.Fatal("follower got another index")
		}
	default:
		t.Fatalf("follower failed: %v", v)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("handoff must not rebuild: %d build calls", got)
	}
	// The result was installed; a fresh lookup hits.
	if _, hit, err := c.RangeIndex(nil, key, 3, 3, 10, build); err != nil || !hit {
		t.Fatalf("post-handoff lookup: hit=%v err=%v", hit, err)
	}
}

func TestConcurrentAllWaitersCancelledLeavesEntryUnpoisoned(t *testing.T) {
	leakcheck.Check(t)
	c := New(DefaultBudget)
	var calls atomic.Int64
	started := make(chan struct{})
	buildBlocking := func(ctx context.Context) (*lengthrange.RangeIndex, error) {
		calls.Add(1)
		close(started)
		<-ctx.Done() // only the flight's own context can stop this build
		return nil, ctx.Err()
	}
	key := KeyFor(testDFA(t, 8, 6))

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.RangeIndex(ctx, key, 2, 2, 10, buildBlocking)
		errCh <- err
	}()
	<-started
	waitRefs(t, c, key, 2, 2, 1)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The abandoned flight must drain (its context was cancelled because
	// no waiters remained) and must not leave a poisoned entry behind.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		e := peekLocked(c, key, 2, 2)
		idle := e == nil || e.flight == nil
		c.mu.Unlock()
		if idle {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned flight never finished")
		}
		time.Sleep(time.Millisecond)
	}
	c.mu.Lock()
	left := len(c.entries)
	c.mu.Unlock()
	if left != 0 {
		t.Fatal("abandoned build left its entry behind")
	}
	fresh := stub()
	v, hit, err := c.RangeIndex(nil, key, 2, 2, 10, func(context.Context) (*lengthrange.RangeIndex, error) {
		calls.Add(1)
		return fresh, nil
	})
	if err != nil || hit || v != fresh {
		t.Fatalf("retry after abandonment: v=%v hit=%v err=%v", v, hit, err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("want abandoned + fresh build, got %d calls", got)
	}
	if st := c.Stats(); st.BuildErrors != 1 {
		t.Fatalf("abandoned build should count as an error: %+v", st)
	}
}

func TestEvictionNeverExceedsBudget(t *testing.T) {
	c := New(100)
	key := KeyFor(testDFA(t, 9, 6))
	mk := func(length int, est int64) {
		t.Helper()
		v, _, err := c.RangeIndex(nil, key, length, length, est, func(context.Context) (*lengthrange.RangeIndex, error) {
			return stub(), nil
		})
		if err != nil || v == nil {
			t.Fatalf("insert %d: %v", length, err)
		}
		if st := c.Stats(); st.Bytes > st.Budget {
			t.Fatalf("budget exceeded after insert %d: %+v", length, st)
		}
	}
	mk(1, 40)
	mk(2, 40)
	// Touch entry 1 so entry 2 is the LRU victim.
	if _, hit, _ := c.RangeIndex(nil, key, 1, 1, 40, nil); !hit {
		t.Fatal("touch of entry 1 missed")
	}
	mk(3, 40)
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 80 {
		t.Fatalf("after LRU eviction: %+v", st)
	}
	if _, hit, _ := c.RangeIndex(nil, key, 1, 1, 40, nil); !hit {
		t.Fatal("recently-touched entry was evicted")
	}
	es := c.EntryStats()
	if len(es) != 2 {
		t.Fatalf("want 2 resident entries, got %+v", es)
	}
	for _, e := range es {
		if e.Lo == 2 {
			t.Fatal("LRU victim still resident")
		}
	}
}

func TestOversizeEntryIsServedButNotRetained(t *testing.T) {
	c := New(100)
	key := KeyFor(testDFA(t, 10, 6))
	var calls atomic.Int64
	big := stub()
	build := func(context.Context) (*lengthrange.RangeIndex, error) {
		calls.Add(1)
		return big, nil
	}
	v, hit, err := c.RangeIndex(nil, key, 1, 1, 10_000, build)
	if err != nil || hit || v != big {
		t.Fatalf("oversize fill: v=%v hit=%v err=%v", v, hit, err)
	}
	st := c.Stats()
	if st.Bytes != 0 || st.Entries != 0 || st.Evictions != 1 {
		t.Fatalf("oversize entry must be evicted immediately: %+v", st)
	}
	// Next request rebuilds — correctness over retention.
	if _, hit, err := c.RangeIndex(nil, key, 1, 1, 10_000, build); err != nil || hit {
		t.Fatalf("re-request: hit=%v err=%v", hit, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("want 2 builds, got %d", calls.Load())
	}
}

func TestBuildErrorIsNotCached(t *testing.T) {
	c := New(DefaultBudget)
	key := KeyFor(testDFA(t, 11, 6))
	boom := errors.New("boom")
	_, _, err := c.RangeIndex(nil, key, 1, 1, 10, func(context.Context) (*lengthrange.RangeIndex, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	ok := stub()
	v, hit, err := c.RangeIndex(nil, key, 1, 1, 10, func(context.Context) (*lengthrange.RangeIndex, error) {
		return ok, nil
	})
	if err != nil || hit || v != ok {
		t.Fatalf("retry after error: v=%v hit=%v err=%v", v, hit, err)
	}
	if st := c.Stats(); st.BuildErrors != 1 || st.Builds != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFaultInjectionAtFillBoundary(t *testing.T) {
	t.Setenv(faultinject.EnvVar, "1")
	if err := faultinject.Configure(string(faultinject.SiteCacheFill) + ":1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Reset)
	c := New(DefaultBudget)
	n := testDFA(t, 12, 6)
	_, _, err := c.RangeIndex(nil, KeyFor(n), 3, 3, 10, buildAt(n, 3))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
	if st := c.Stats(); st.Builds != 0 {
		t.Fatalf("faulted fill must not start a build: %+v", st)
	}
	faultinject.Reset()
	if _, hit, err := c.RangeIndex(nil, KeyFor(n), 3, 3, 10, buildAt(n, 3)); err != nil || hit {
		t.Fatalf("retry after fault: hit=%v err=%v", hit, err)
	}
}

func TestStatsStringAndBudget(t *testing.T) {
	c := New(42)
	if c.Budget() != 42 {
		t.Fatalf("budget: %d", c.Budget())
	}
	s := c.Stats().String()
	for _, field := range []string{"hits=", "misses=", "builds=", "evictions=", "entries=", "bytes=", "budget=42"} {
		if !strings.Contains(s, field) {
			t.Fatalf("stats string %q missing %q", s, field)
		}
	}
}

func TestWLCollisionResolvesToSeparateEntries(t *testing.T) {
	// Two structurally distinct automata — a nondeterministic hub fanning
	// into one 6-cycle or into two 3-cycles, a pair no local refinement
	// tells apart — forced into one pre-hash bucket must occupy distinct
	// entries: exact structural verification separates what any
	// hash-level pre-key may conflate.
	build := func(cycles [][]int) *automata.NFA {
		n := automata.New(automata.Binary(), 7)
		n.SetStart(0)
		for q := 1; q < 7; q++ {
			n.SetFinal(q, true)
			n.AddTransition(0, 0, q)
		}
		for _, cyc := range cycles {
			for i, q := range cyc {
				n.AddTransition(q, 0, cyc[(i+1)%len(cyc)])
			}
		}
		return n
	}
	a := build([][]int{{1, 2, 3, 4, 5, 6}})
	b := build([][]int{{1, 2, 3}, {4, 5, 6}})
	ka, kb := KeyFor(a), KeyFor(b)
	if automata.Equal(ka.Norm(), kb.Norm()) {
		t.Fatal("pair normalizes equal; construction is broken")
	}
	// Force the pair into ONE pre-hash bucket (a pre-key collision), the
	// case the exact Equal verification exists for.
	kb = &Key{norm: kb.norm, pre: ka.pre}
	c := New(DefaultBudget)
	ia, ib := stub(), stub()
	if _, _, err := c.RangeIndex(nil, ka, 1, 1, 10, func(context.Context) (*lengthrange.RangeIndex, error) { return ia, nil }); err != nil {
		t.Fatal(err)
	}
	v, hit, err := c.RangeIndex(nil, kb, 1, 1, 10, func(context.Context) (*lengthrange.RangeIndex, error) { return ib, nil })
	if err != nil || hit || v != ib {
		t.Fatalf("collision bucket must split: v=%v hit=%v err=%v", v, hit, err)
	}
	if st := c.Stats(); st.Builds != 2 || st.Entries != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if len(c.entries[bucket{pre: ka.pre, lo: 1, hi: 1}]) != 2 {
		t.Fatal("collision bucket should hold both entries")
	}
	// Each still hits its own entry.
	for _, tc := range []struct {
		key  *Key
		want *lengthrange.RangeIndex
	}{{ka, ia}, {kb, ib}} {
		if v, hit, err := c.RangeIndex(nil, tc.key, 1, 1, 10, nil); err != nil || !hit || v != tc.want {
			t.Fatalf("collision bucket lookup: v=%v hit=%v err=%v", v, hit, err)
		}
	}
}

// rankedDFA returns a random DFA of the serving benchmark's ranked
// tenants' shape: 32–128 states over 2–4 symbols (the i-th tenant has
// 2 + i mod 3 symbols).
func rankedDFA(rng *rand.Rand, i int) *automata.NFA {
	alpha := automata.NewAlphabet([]string{"a", "b", "c", "d"}[:2+i%3]...)
	return automata.RandomDFA(rng, alpha, 32+rng.Intn(97), 0.5)
}

// TestFailedBuildsLeaveNoEntries: a failed build unlinks its entry, so
// automata whose builds fail leave nothing behind.
func TestFailedBuildsLeaveNoEntries(t *testing.T) {
	c := New(DefaultBudget)
	rng := rand.New(rand.NewSource(19))
	boom := errors.New("boom")
	for i := 0; i < 100; i++ {
		_, _, err := c.RangeIndex(nil, KeyFor(rankedDFA(rng, i)), 20, 20, 10, func(context.Context) (*lengthrange.RangeIndex, error) {
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("build %d: want boom, got %v", i, err)
		}
	}
	if st := c.Stats(); st.BuildErrors != 100 || st.Entries != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if len(c.entries) != 0 {
		t.Fatalf("failed builds left %d buckets behind", len(c.entries))
	}
}

// TestEvictedAutomataAreNotRetained: a cache whose budget evicts every
// entry on insertion keeps no memory for the automata it was asked for —
// nothing outside its entries refers to a normal form.
func TestEvictedAutomataAreNotRetained(t *testing.T) {
	c := New(1)
	rng := rand.New(rand.NewSource(23))
	build := func(context.Context) (*lengthrange.RangeIndex, error) { return stub(), nil }
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 256; i++ {
		if _, _, err := c.RangeIndex(nil, KeyFor(rankedDFA(rng, i)), 20, 20, 2, build); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if st := c.Stats(); st.Evictions != 256 || st.Entries != 0 || len(c.entries) != 0 {
		t.Fatalf("every entry should be evicted on insertion: %+v, %d buckets", st, len(c.entries))
	}
	kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap after 256 evicted lookups: %+d bytes", kept)
	if kept > 64<<10 {
		t.Fatalf("cache keeps %d bytes reachable after evicting every entry (bound 64 KiB)", kept)
	}
}
