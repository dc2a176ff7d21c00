package instcache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/automata"
	"repro/internal/countdag"
	"repro/internal/faultinject"
	"repro/internal/leakcheck"
	"repro/internal/lengthrange"
	"repro/internal/unroll"
)

func testDFA(t testing.TB, seed int64, states int) *automata.NFA {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return automata.Trim(automata.RandomDFA(rng, automata.Binary(), states, 0.5))
}

func buildUFA(n *automata.NFA, length int) func(context.Context) (*countdag.Index, error) {
	return func(ctx context.Context) (*countdag.Index, error) {
		dag, err := unroll.Build(n, length, unroll.Options{PruneBackward: true})
		if err != nil {
			return nil, err
		}
		return countdag.BuildCtx(ctx, dag, 1)
	}
}

// ekFor resolves the entry key a lookup would use; white-box, for the
// handoff tests' flight peeking.
func ekFor(c *Cache, key *Key, kind uint8, lo, hi int) entryKey {
	return entryKey{cls: c.resolveClass(key), kind: kind, lo: lo, hi: hi}
}

// waitRefs polls until the entry's flight has the given waiter count; the
// white-box peek is what makes the handoff tests deterministic.
func waitRefs(t *testing.T, c *Cache, ek entryKey, want int) *flight {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		e := c.entries[ek]
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

func TestUFAIndexHitIsSameIndex(t *testing.T) {
	c := New(DefaultBudget)
	n := testDFA(t, 1, 8)
	key := KeyFor(n)
	idx1, hit1, err := c.UFAIndex(nil, key, 6, 100, buildUFA(n, 6))
	if err != nil || hit1 {
		t.Fatalf("first lookup: hit=%v err=%v", hit1, err)
	}
	idx2, hit2, err := c.UFAIndex(nil, key, 6, 100, buildUFA(n, 6))
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

	if _, hit, err := c.UFAIndex(nil, kn, 5, 100, buildUFA(kn.Norm(), 5)); err != nil || hit {
		t.Fatalf("cold lookup: hit=%v err=%v", hit, err)
	}
	idx, hit, err := c.UFAIndex(nil, kr, 5, 100, buildUFA(kr.Norm(), 5))
	if err != nil || !hit {
		t.Fatalf("relabelled lookup should hit: hit=%v err=%v", hit, err)
	}
	if idx == nil {
		t.Fatal("nil index on hit")
	}
	st := c.Stats()
	if st.Builds != 1 {
		t.Fatalf("want exactly one build, got %d", st.Builds)
	}
	// Minimize ran once for the whole isomorphism class: the relabelled
	// lookup resolved to the already-verified class.
	if st.StrongComputes != 1 {
		t.Fatalf("want one strong-key computation, got %d", st.StrongComputes)
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

	if _, _, err := c.UFAIndex(nil, KeyFor(n), 4, 50, buildUFA(n, 4)); err != nil {
		t.Fatal(err)
	}
	_, hit, err := c.UFAIndex(nil, KeyFor(r), 4, 50, buildUFA(r, 4))
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

func TestRangeAndUFAEntriesAreDistinct(t *testing.T) {
	c := New(DefaultBudget)
	n := testDFA(t, 5, 8)
	key := KeyFor(n)
	if _, hit, err := c.UFAIndex(nil, key, 4, 50, buildUFA(n, 4)); err != nil || hit {
		t.Fatalf("ufa: hit=%v err=%v", hit, err)
	}
	ri, hit, err := c.RangeIndex(nil, key, 4, 4, 50, func(ctx context.Context) (*lengthrange.RangeIndex, error) {
		return lengthrange.BuildCtx(ctx, key.Norm(), 4, 4, 1)
	})
	if err != nil || hit || ri == nil {
		t.Fatalf("range: hit=%v err=%v", hit, err)
	}
	es := c.EntryStats()
	if len(es) != 2 || es[0].Kind == es[1].Kind {
		t.Fatalf("want one ufa + one range entry, got %+v", es)
	}
	for _, e := range es {
		if e.Iso == "" || e.Strong == "" {
			t.Fatalf("entry stats missing class keys: %+v", e)
		}
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
			idx, _, err := c.UFAIndex(context.Background(), KeyFor(n), 8, 100, func(ctx context.Context) (*countdag.Index, error) {
				calls.Add(1)
				time.Sleep(2 * time.Millisecond) // widen the dedup window
				return buildUFA(n, 8)(ctx)
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
	build := func(ctx context.Context) (any, error) {
		calls.Add(1)
		close(started)
		select {
		case <-release:
			return "value", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	key := KeyFor(testDFA(t, 7, 6))
	ek := ekFor(c, key, kindUFA, 3, 3)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.getOrBuild(leaderCtx, key, kindUFA, 3, 3, 10, build)
		leaderErr <- err
	}()
	<-started
	waitRefs(t, c, ek, 1)

	followerVal := make(chan any, 1)
	go func() {
		v, _, err := c.getOrBuild(context.Background(), key, kindUFA, 3, 3, 10, build)
		if err != nil {
			followerVal <- err
		} else {
			followerVal <- v
		}
	}()
	waitRefs(t, c, ek, 2)

	// Cancel the leader mid-build: the flight must keep running for the
	// follower — no second build invocation.
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: want context.Canceled, got %v", err)
	}
	close(release)
	switch v := (<-followerVal).(type) {
	case string:
		if v != "value" {
			t.Fatalf("follower got %q", v)
		}
	default:
		t.Fatalf("follower failed: %v", v)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("handoff must not rebuild: %d build calls", got)
	}
	// The result was installed; a fresh lookup hits.
	if _, hit, err := c.getOrBuild(nil, key, kindUFA, 3, 3, 10, build); err != nil || !hit {
		t.Fatalf("post-handoff lookup: hit=%v err=%v", hit, err)
	}
}

func TestConcurrentAllWaitersCancelledLeavesEntryUnpoisoned(t *testing.T) {
	leakcheck.Check(t)
	c := New(DefaultBudget)
	var calls atomic.Int64
	started := make(chan struct{})
	buildBlocking := func(ctx context.Context) (any, error) {
		calls.Add(1)
		close(started)
		<-ctx.Done() // only the flight's own context can stop this build
		return nil, ctx.Err()
	}
	key := KeyFor(testDFA(t, 8, 6))
	ek := ekFor(c, key, kindUFA, 2, 2)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.getOrBuild(ctx, key, kindUFA, 2, 2, 10, buildBlocking)
		errCh <- err
	}()
	<-started
	waitRefs(t, c, ek, 1)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The abandoned flight must drain (its context was cancelled because
	// no waiters remained) and must not leave a poisoned entry behind.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		e := c.entries[ek]
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
	v, hit, err := c.getOrBuild(nil, key, kindUFA, 2, 2, 10, func(context.Context) (any, error) {
		calls.Add(1)
		return "fresh", nil
	})
	if err != nil || hit || v != "fresh" {
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
		v, _, err := c.getOrBuild(nil, key, kindUFA, length, length, est, func(context.Context) (any, error) {
			return fmt.Sprintf("v%d", length), nil
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
	if _, hit, _ := c.getOrBuild(nil, key, kindUFA, 1, 1, 40, nil); !hit {
		t.Fatal("touch of entry 1 missed")
	}
	mk(3, 40)
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 80 {
		t.Fatalf("after LRU eviction: %+v", st)
	}
	if _, hit, _ := c.getOrBuild(nil, key, kindUFA, 1, 1, 40, nil); !hit {
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
	build := func(context.Context) (any, error) {
		calls.Add(1)
		return "big", nil
	}
	v, hit, err := c.getOrBuild(nil, key, kindUFA, 1, 1, 10_000, build)
	if err != nil || hit || v != "big" {
		t.Fatalf("oversize fill: v=%v hit=%v err=%v", v, hit, err)
	}
	st := c.Stats()
	if st.Bytes != 0 || st.Entries != 0 || st.Evictions != 1 {
		t.Fatalf("oversize entry must be evicted immediately: %+v", st)
	}
	// Next request rebuilds — correctness over retention.
	if _, hit, err := c.getOrBuild(nil, key, kindUFA, 1, 1, 10_000, build); err != nil || hit {
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
	_, _, err := c.getOrBuild(nil, key, kindUFA, 1, 1, 10, func(context.Context) (any, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	v, hit, err := c.getOrBuild(nil, key, kindUFA, 1, 1, 10, func(context.Context) (any, error) {
		return "ok", nil
	})
	if err != nil || hit || v != "ok" {
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
	_, _, err := c.UFAIndex(nil, KeyFor(n), 3, 10, buildUFA(n, 3))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
	if st := c.Stats(); st.Builds != 0 {
		t.Fatalf("faulted fill must not start a build: %+v", st)
	}
	faultinject.Reset()
	if _, hit, err := c.UFAIndex(nil, KeyFor(n), 3, 10, buildUFA(n, 3)); err != nil || hit {
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
	// Two non-isomorphic automata engineered to be indistinguishable to WL
	// refinement (see automata.TestStrongKeySplitsWLCollision) must occupy
	// distinct entries — exact structural verification separates what any
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
	if automata.WLHash(a) != automata.WLHash(b) {
		t.Fatal("pair should WL-collide")
	}
	ka, kb := KeyFor(a), KeyFor(b)
	// Force the pair into ONE pre-hash bucket (a pre-key collision), the
	// case the exact Equal verification exists for.
	kb = &Key{norm: kb.norm, pre: ka.pre}
	c := New(DefaultBudget)
	if _, _, err := c.getOrBuild(nil, ka, kindUFA, 1, 1, 10, func(context.Context) (any, error) { return "a", nil }); err != nil {
		t.Fatal(err)
	}
	v, hit, err := c.getOrBuild(nil, kb, kindUFA, 1, 1, 10, func(context.Context) (any, error) { return "b", nil })
	if err != nil || hit || v != "b" {
		t.Fatalf("collision bucket must split: v=%v hit=%v err=%v", v, hit, err)
	}
	if st := c.Stats(); st.Builds != 2 || st.StrongComputes != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if len(c.classes[ka.pre]) != 2 {
		t.Fatal("collision bucket should hold both verified classes")
	}
}
