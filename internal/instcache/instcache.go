// Package instcache is a concurrency-safe, byte-budgeted LRU cache of
// compiled instances — frozen countdag / lengthrange counting indexes —
// shared across core.Instance values, so a serving workload that sees the
// same automaton twice (or two structurally-isomorphic regexes from
// different tenants) pays the backward counting sweep once. It is the
// preprocess-once / answer-many split applied across *requests* rather
// than per instance: the expensive preprocessing is keyed by what it
// actually depends on, the automaton's identity, not by which Instance
// happened to ask first.
//
// # Keying contract
//
// The engine's enumeration order is structural, not language-level: the
// unrolled DAG orders a vertex's out-edges by successor state id (the
// decision-list order of Algorithm 1), so renumbering the states of even
// a deterministic automaton permutes the observable enumeration, rank and
// sample order. A compiled artifact may therefore only ever be shared
// across automata with *identical* normalized structure. The cache makes
// relabelled DFAs identical instead of merely equivalent: every key is
// computed over automata.Normalize — ε-elimination, trimming, and for
// deterministic automata the canonical breadth-first renumbering — so all
// relabellings of one DFA collapse to one byte-identical normal form and
// land on one entry, with every observable bitwise equal by construction.
//
// Lookup is two-phase:
//
//  1. Pre-key: automata.StructHash of the normal form — a one-pass
//     structural hash that only selects a bucket. (It plays the role the
//     relabelling-invariant automata.WLHash plays in the general keying
//     layer; after normalization the canonical renumbering has already
//     absorbed relabelling, and the one-pass hash is ~10× cheaper than WL
//     refinement, which matters because the pre-key is the warm path.)
//     Collisions are expected and harmless: bucket membership is verified
//     with automata.Equal, an exact structural comparison.
//  2. Strong key: computed only on first insert of a class (or a genuine
//     pre-key collision introducing a new class). automata.StrongKey runs
//     Minimize, so minimization-equivalent DFA classes are recognizably
//     grouped in the exported stats — but they deliberately do NOT share
//     an artifact entry: their canonical structures differ, so their
//     decision-list orders differ, and serving one's index to the other
//     would change observable enumeration order. Likewise relabelled
//     NONdeterministic UFAs stay separate (no canonical form exists whose
//     order matches theirs; relabelling permutes sorted successor lists).
//
// The full entry identity binds, besides the normalized class: the index
// kind (single-length vs cross-length) and the witness length or [lo, hi]
// range. The limb width an index was built at is not part of it: every
// answer is bitwise the same at every width.
//
// Because entries bind to exact normalized structure, a hit is sound for
// EVERY consumer — including the enumerator's balanced splitting, which
// addresses an index by its own DAG's vertex ids — provided the requester
// itself operates on the normal form. core does: Instance automata are
// canonicalized at New, so a cached index attaches everywhere a private
// one would.
//
// # Builds, cancellation, eviction
//
// Builds are deduplicated singleflight-style: N concurrent requests for
// the same (class, length/range) trigger exactly one build; everyone
// else blocks on it. The build runs in a detached goroutine under its own
// cancellable context, and waiters are reference-counted: a cancelled
// leader merely stops waiting — the build keeps running and hands its
// result to the remaining followers (no rebuild). Only when the LAST
// waiter cancels is the build's context cancelled; the failed fill leaves
// no entry behind, so the next request starts a fresh build — a cancelled
// leader never poisons the entry. The fill boundary carries a
// deterministic fault-injection checkpoint (faultinject.SiteCacheFill).
//
// Eviction is least-recently-used by estimated bytes, with the same
// estimator the admission layer charges builds against
// (admission.EstimateIndexBytes), so the budget and the admission caps
// speak one currency. The resident total never exceeds the configured
// budget: an entry larger than the whole budget is evicted immediately
// after insertion (its waiters are served from the in-flight result).
// Per-entry hit/build/byte counters are exported through EntryStats for
// the future server's metrics endpoint.
//
// # Frozen sharing
//
// Cached indexes are shared frozen: every consumer receives the same
// *countdag.Index / *lengthrange.RangeIndex, and the bigmut invariant
// (enforced repo-wide by nfalint) forbids mutating any big.Int obtained
// from them — accessors either hand out frozen shared tables or defensive
// copies, exactly as when the index was instance-private. The cache adds
// no copying and relies on that contract across the cache boundary.
package instcache

import (
	"container/list"
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/automata"
	"repro/internal/countdag"
	"repro/internal/faultinject"
	"repro/internal/lengthrange"
)

// DefaultBudget is the byte budget used when a core.Instance has no shared
// cache configured and falls back to a private one: large enough for a few
// wide-range big.Int tables, small enough that an unshared instance can't
// pin unbounded memory (the bound the old per-instance slot cache lacked).
const DefaultBudget int64 = 64 << 20

// Key is the memoized identity of one automaton: the normal form and its
// structural pre-hash are computed eagerly (both one-pass), the
// relabelling-canonical IsoKey and the minimization-based StrongKey
// lazily, each at most once. A Key is safe for concurrent use; construct
// it once per automaton and reuse it.
type Key struct {
	norm *automata.NFA
	pre  uint64

	isoOnce sync.Once
	iso     string

	strongOnce sync.Once
	strong     string
}

// KeyFor builds the cache key for n. The automaton must not be mutated
// afterwards. core hands in its instance automaton, which is already the
// normal form — Normalize is then a cheap idempotent pass.
func KeyFor(n *automata.NFA) *Key {
	norm := automata.Normalize(n)
	return &Key{norm: norm, pre: automata.StructHash(norm)}
}

// Pre returns the structural pre-key of the normal form (bucket selector
// only — never an identity).
func (k *Key) Pre() uint64 { return k.pre }

// Norm returns the normalized automaton the key identifies.
func (k *Key) Norm() *automata.NFA { return k.norm }

// Iso returns the relabelling-canonical key (automata.IsoKey), memoized.
func (k *Key) Iso() string {
	k.isoOnce.Do(func() { k.iso = automata.IsoKey(k.norm) })
	return k.iso
}

// Strong returns the full unification key (automata.StrongKey), memoized.
// This is the only phase that runs Minimize; the cache calls it only on
// the first sighting of a structural class.
func (k *Key) Strong() string {
	k.strongOnce.Do(func() { k.strong = automata.StrongKey(k.norm) })
	return k.strong
}

// class is one resolved structural identity: the normal form plus its
// string keys, computed once when the class is first seen. Entry identity
// is the class pointer — exact normalized structure — never the strong
// key (see the package comment: minimization-equivalent DFAs must not
// share artifacts).
type class struct {
	norm   *automata.NFA
	pre    uint64
	iso    string
	strong string
}

// entry kinds; part of the entry identity.
const (
	kindUFA uint8 = iota + 1
	kindRange
)

// entryKey is the full identity of one cached artifact.
type entryKey struct {
	cls    *class
	kind   uint8
	lo, hi int
}

func (ek entryKey) kindString() string {
	if ek.kind == kindUFA {
		return "ufa"
	}
	return "range"
}

// flight is one in-progress deduplicated build.
type flight struct {
	done   chan struct{} // closed (under Cache.mu) when the build finishes
	cancel context.CancelFunc

	// refs counts the waiters still blocked on done; when it reaches zero
	// before the build finishes, the build context is cancelled.
	refs int // guarded by Cache.mu

	// Result fields; written before done is closed, read only after.
	val any
	err error
}

// entry is one cache slot: either filled (val non-nil, on the LRU list)
// or being filled (flight non-nil).
type entry struct {
	key    entryKey
	val    any           // guarded by Cache.mu
	bytes  int64         // guarded by Cache.mu
	flight *flight       // guarded by Cache.mu
	elem   *list.Element // guarded by Cache.mu; nil while not resident

	hits   uint64 // guarded by Cache.mu
	misses uint64 // guarded by Cache.mu
	builds uint64 // guarded by Cache.mu
}

// Cache is the shared compiled-index cache. The zero value is not usable;
// construct with New.
type Cache struct {
	mu     sync.Mutex
	budget int64 // immutable after New; <= 0 means unbounded

	entries map[entryKey]*entry // guarded by mu
	lru     *list.List          // guarded by mu; front = most recent
	bytes   int64               // guarded by mu; sum over resident entries
	classes map[uint64][]*class // guarded by mu; pre-hash → verified classes

	hits           uint64 // guarded by mu
	misses         uint64 // guarded by mu
	builds         uint64 // guarded by mu
	buildErrors    uint64 // guarded by mu
	evictions      uint64 // guarded by mu
	strongComputes uint64 // guarded by mu
}

// New returns a cache with the given byte budget; budget <= 0 means
// unbounded.
func New(budget int64) *Cache {
	return &Cache{
		budget:  budget,
		entries: make(map[entryKey]*entry),
		lru:     list.New(),
		classes: make(map[uint64][]*class),
	}
}

// Budget returns the configured byte budget (<= 0 means unbounded).
func (c *Cache) Budget() int64 { return c.budget }

// UFAIndex returns the single-length counting index for (key, length),
// building it with build on a miss,
// and reports whether the call was served from a resident entry. ctx
// cancels only this caller's wait — an in-flight build owned by other
// waiters keeps running; a build with no waiters left is cancelled.
func (c *Cache) UFAIndex(ctx context.Context, key *Key, length int, est int64, build func(context.Context) (*countdag.Index, error)) (*countdag.Index, bool, error) {
	v, hit, err := c.getOrBuild(ctx, key, kindUFA, length, length, est, func(bctx context.Context) (any, error) {
		return build(bctx)
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*countdag.Index), hit, nil
}

// RangeIndex is UFAIndex for the cross-length index over [lo, hi].
func (c *Cache) RangeIndex(ctx context.Context, key *Key, lo, hi int, est int64, build func(context.Context) (*lengthrange.RangeIndex, error)) (*lengthrange.RangeIndex, bool, error) {
	v, hit, err := c.getOrBuild(ctx, key, kindRange, lo, hi, est, func(bctx context.Context) (any, error) {
		return build(bctx)
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*lengthrange.RangeIndex), hit, nil
}

// resolveClass resolves the key's structural class: the pre-hash selects
// a bucket, automata.Equal verifies membership exactly. The string keys —
// including the Minimize-based strong key — are computed only when the
// class has never been seen: first insert or a genuine pre-hash collision
// introducing a new class.
func (c *Cache) resolveClass(key *Key) *class {
	c.mu.Lock()
	for _, cl := range c.classes[key.pre] {
		if automata.Equal(key.norm, cl.norm) {
			c.mu.Unlock()
			return cl
		}
	}
	c.mu.Unlock()
	// Expensive phase (codec marshal + Minimize), outside the lock.
	iso, strong := key.Iso(), key.Strong()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cl := range c.classes[key.pre] {
		if automata.Equal(key.norm, cl.norm) {
			return cl
		}
	}
	cl := &class{norm: key.norm, pre: key.pre, iso: iso, strong: strong}
	c.classes[key.pre] = append(c.classes[key.pre], cl)
	c.strongComputes++
	return cl
}

func (c *Cache) getOrBuild(ctx context.Context, key *Key, kind uint8, lo, hi int, est int64, build func(context.Context) (any, error)) (any, bool, error) {
	if err := faultinject.Check(ctx, faultinject.SiteCacheFill); err != nil {
		return nil, false, err
	}
	ek := entryKey{cls: c.resolveClass(key), kind: kind, lo: lo, hi: hi}

	c.mu.Lock()
	e := c.entries[ek]
	if e == nil {
		e = &entry{key: ek}
		c.entries[ek] = e
	}
	if e.val != nil {
		e.hits++
		c.hits++
		c.lru.MoveToFront(e.elem)
		v := e.val
		c.mu.Unlock()
		return v, true, nil
	}
	e.misses++
	c.misses++
	f := e.flight
	if f == nil {
		bctx, cancel := context.WithCancel(context.Background())
		f = &flight{done: make(chan struct{}), cancel: cancel}
		e.flight = f
		e.builds++
		c.builds++
		go c.runBuild(e, f, bctx, est, build)
	}
	f.refs++
	c.mu.Unlock()

	var cancelCh <-chan struct{}
	if ctx != nil {
		cancelCh = ctx.Done()
	}
	select {
	case <-f.done:
		if f.err != nil {
			return nil, false, f.err
		}
		return f.val, false, nil
	case <-cancelCh:
		c.abandon(f)
		return nil, false, ctx.Err()
	}
}

// abandon drops one waiter from a flight; the last waiter to leave
// cancels the detached build (if it is still running).
func (c *Cache) abandon(f *flight) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f.refs--
	if f.refs > 0 {
		return
	}
	select {
	case <-f.done:
		// Build already finished; nothing to stop.
	default:
		f.cancel()
	}
}

// runBuild executes one deduplicated build on a detached goroutine and
// publishes the result to the entry and every waiter.
func (c *Cache) runBuild(e *entry, f *flight, bctx context.Context, est int64, build func(context.Context) (any, error)) {
	defer f.cancel() // release the flight context in every path
	val, err := build(bctx)
	c.mu.Lock()
	defer c.mu.Unlock()
	f.val, f.err = val, err
	if err == nil {
		c.installLocked(e, val, est)
	} else {
		c.buildErrors++
	}
	e.flight = nil
	close(f.done)
}

func (c *Cache) installLocked(e *entry, val any, est int64) {
	e.val = val
	e.bytes = est
	e.elem = c.lru.PushFront(e)
	c.bytes += est
	for c.budget > 0 && c.bytes > c.budget && c.lru.Len() > 0 {
		victim := c.lru.Back().Value.(*entry)
		c.removeLocked(victim)
		c.evictions++
	}
}

func (c *Cache) removeLocked(e *entry) {
	c.lru.Remove(e.elem)
	e.elem = nil
	c.bytes -= e.bytes
	e.val = nil
	delete(c.entries, e.key)
}

// Stats is a snapshot of the cache-wide counters.
type Stats struct {
	Hits, Misses   uint64
	Builds         uint64
	BuildErrors    uint64
	Evictions      uint64
	StrongComputes uint64
	Entries        int
	Bytes          int64
	Budget         int64
}

func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d builds=%d errors=%d evictions=%d strongkeys=%d entries=%d bytes=%d budget=%d",
		s.Hits, s.Misses, s.Builds, s.BuildErrors, s.Evictions, s.StrongComputes, s.Entries, s.Bytes, s.Budget)
}

// Stats returns a snapshot of the cache-wide counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:           c.hits,
		Misses:         c.misses,
		Builds:         c.builds,
		BuildErrors:    c.buildErrors,
		Evictions:      c.evictions,
		StrongComputes: c.strongComputes,
		Entries:        c.lru.Len(),
		Bytes:          c.bytes,
		Budget:         c.budget,
	}
}

// EntryStats is the per-entry accounting exported for metrics. Iso is the
// entry's structural-class key; Strong groups minimization-equivalent
// classes (same language, separate artifacts).
type EntryStats struct {
	Iso    string
	Strong string
	Kind   string
	Lo, Hi int
	Bytes  int64
	Hits   uint64
	Misses uint64
	Builds uint64
}

// EntryStats returns per-entry counters for every resident entry, in a
// deterministic order (strong key, then iso key, then kind, then range).
func (c *Cache) EntryStats() []EntryStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]EntryStats, 0, len(c.entries))
	for _, e := range c.entries {
		if e.val == nil {
			continue
		}
		out = append(out, EntryStats{
			Iso:    e.key.cls.iso,
			Strong: e.key.cls.strong,
			Kind:   e.key.kindString(),
			Lo:     e.key.lo,
			Hi:     e.key.hi,
			Bytes:  e.bytes,
			Hits:   e.hits,
			Misses: e.misses,
			Builds: e.builds,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Strong != b.Strong {
			return a.Strong < b.Strong
		}
		if a.Iso != b.Iso {
			return a.Iso < b.Iso
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Lo != b.Lo {
			return a.Lo < b.Lo
		}
		return a.Hi < b.Hi
	})
	return out
}
