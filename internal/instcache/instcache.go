// Package instcache is a concurrency-safe, byte-budgeted LRU cache of
// compiled instances — frozen lengthrange counting indexes, one per
// automaton and length range — shared across core.Instance values, so a
// serving workload that sees the same automaton twice (or two
// relabellings of one DFA from different tenants) pays the backward
// counting sweep once. It is the preprocess-once / answer-many
// split applied across *requests* rather than per instance: the expensive
// preprocessing is keyed by what it actually depends on, the automaton's
// identity, not by which Instance happened to ask first.
//
// # Keying contract
//
// The engine's enumeration order is structural, not language-level: the
// counting index orders a vertex's out-edges by successor state id (the
// decision-list order of Algorithm 1), so renumbering the states of even
// a deterministic automaton permutes the observable enumeration, rank and
// sample order. A compiled artifact may therefore only ever be shared
// across automata with *identical* normalized structure. The cache makes
// relabelled DFAs identical instead of merely equivalent: every key is
// the automaton's automata.Normalize form — ε-elimination, trimming, and
// for deterministic automata the canonical breadth-first renumbering — so
// all relabellings of one DFA collapse to one byte-identical normal form
// and land on one entry, with every observable bitwise equal by
// construction. Relabelled NONdeterministic automata stay separate: no
// canonical form exists whose order matches theirs (relabelling permutes
// sorted successor lists), so Normalize keeps their state order.
//
// Lookup is one phase. Every entry is filed under its bucket — the
// normal form's automata.StructHash (a one-pass structural pre-hash) and
// the [lo, hi] range — together with the normal form itself, and a
// lookup picks the entry of its bucket whose normal form is
// automata.Equal to its own. Pre-hash collisions are harmless: Equal, an
// exact structural comparison, separates them within the bucket. An
// entry is unlinked when it is evicted or its build fails, so the cache
// holds nothing for an automaton it holds no index for.
//
// A single witness length n is the range [n, n], so a single-length
// lookup and a range lookup at [n, n] share one entry. The limb width an
// index was built at is not part of the identity: every answer is
// bitwise the same at every width.
//
// Because entries bind to exact normalized structure, a hit is sound for
// EVERY consumer — including Algorithm 1's enumeration, which walks the
// index's edge lists and mints tokens from its decision vectors —
// provided the requester itself operates on the normal form. core does:
// Instance automata are normalized at New (and keyed with KeyForNormal),
// so a cached index serves everywhere a private one would.
//
// # Builds, cancellation, eviction
//
// Builds are deduplicated singleflight-style: N concurrent requests for
// the same (normal form, range) trigger exactly one build; everyone
// else blocks on it. The build runs in a detached goroutine under its own
// cancellable context, and waiters are reference-counted: a cancelled
// leader merely stops waiting — the build keeps running and hands its
// result to the remaining followers (no rebuild). Only when the LAST
// waiter cancels is the build's context cancelled; a failed or abandoned
// fill unlinks its entry, so the next request starts a fresh build — a
// cancelled leader never poisons the entry. The fill boundary carries a
// deterministic fault-injection checkpoint (faultinject.SiteCacheFill).
//
// Eviction is least-recently-used by estimated bytes, with the same
// estimator the admission layer charges builds against
// (admission.EstimateIndexBytes), so the budget and the admission caps
// speak one currency. The resident total never exceeds the configured
// budget: an entry larger than the whole budget is evicted immediately
// after insertion (its waiters are served from the in-flight result).
// Per-entry hit/build/byte counters are exported through EntryStats for
// nfad's /v1/stats.
//
// # Frozen sharing
//
// Cached indexes are shared frozen: every consumer receives the same
// *lengthrange.RangeIndex. Its methods only read, and every *big.Int they
// return is converted fresh, so nothing a consumer holds aliases the
// shared tables; the cache adds no copying.
package instcache

import (
	"container/list"
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/automata"
	"repro/internal/faultinject"
	"repro/internal/lengthrange"
)

// DefaultBudget is the byte budget used when a core.Instance has no shared
// cache configured and falls back to a private one, in the currency of
// admission.EstimateIndexBytes: enough estimated index bytes for many
// wide ranges, small enough that an unshared instance can't pin unbounded
// memory.
const DefaultBudget int64 = 64 << 20

// Key is the identity of one automaton: its normal form and the normal
// form's structural pre-hash, both computed at construction in one pass
// each. A Key is immutable and safe for concurrent use; construct it once
// per automaton and reuse it.
type Key struct {
	norm *automata.NFA
	pre  uint64
}

// KeyFor builds the cache key for n over its normal form. The automaton
// must not be mutated afterwards.
func KeyFor(n *automata.NFA) *Key { return KeyForNormal(automata.Normalize(n)) }

// KeyForNormal is KeyFor for an automaton already in normal form (an
// automata.Normalize result, as every core instance automaton is): it
// skips the normalization pass. Keying any other automaton would file it
// apart from its normal form's entries. The automaton must not be mutated
// afterwards.
func KeyForNormal(norm *automata.NFA) *Key {
	return &Key{norm: norm, pre: automata.StructHash(norm)}
}

// Pre returns the structural pre-key of the normal form (bucket selector
// only — never an identity).
func (k *Key) Pre() uint64 { return k.pre }

// Norm returns the normalized automaton the key identifies.
func (k *Key) Norm() *automata.NFA { return k.norm }

// bucket is what an entry is filed under: the normal form's pre-hash and
// the range. Entries of one bucket differ in their normal forms.
type bucket struct {
	pre    uint64
	lo, hi int
}

// flight is one in-progress deduplicated build.
type flight struct {
	done   chan struct{} // closed (under Cache.mu) when the build finishes
	cancel context.CancelFunc

	// refs counts the waiters still blocked on done; when it reaches zero
	// before the build finishes, the build context is cancelled.
	refs int // guarded by Cache.mu

	// Result fields; written before done is closed, read only after.
	val *lengthrange.RangeIndex
	err error
}

// entry is one cache slot: either filled (val non-nil, on the LRU list)
// or being filled (flight non-nil). It is linked into its bucket while it
// is either, and unlinked when it is evicted or its build fails.
type entry struct {
	bucket bucket
	norm   *automata.NFA
	val    *lengthrange.RangeIndex // guarded by Cache.mu
	bytes  int64                   // guarded by Cache.mu
	flight *flight                 // guarded by Cache.mu
	elem   *list.Element           // guarded by Cache.mu; nil while not resident

	hits   uint64 // guarded by Cache.mu
	misses uint64 // guarded by Cache.mu
	builds uint64 // guarded by Cache.mu
}

// Cache is the shared compiled-index cache. The zero value is not usable;
// construct with New.
type Cache struct {
	mu     sync.Mutex
	budget int64 // immutable after New; <= 0 means unbounded

	entries map[bucket][]*entry // guarded by mu; every resident or filling entry
	lru     *list.List          // guarded by mu; front = most recent
	bytes   int64               // guarded by mu; sum over resident entries

	hits        uint64 // guarded by mu
	misses      uint64 // guarded by mu
	builds      uint64 // guarded by mu
	buildErrors uint64 // guarded by mu
	evictions   uint64 // guarded by mu
}

// New returns a cache with the given byte budget; budget <= 0 means
// unbounded.
func New(budget int64) *Cache {
	return &Cache{
		budget:  budget,
		entries: make(map[bucket][]*entry),
		lru:     list.New(),
	}
}

// Budget returns the configured byte budget (<= 0 means unbounded).
func (c *Cache) Budget() int64 { return c.budget }

// RangeIndex returns the counting index over [lo, hi] for key, building
// it with build on a miss, and reports whether the call was served from a
// resident entry. A single length n is the range [n, n]. ctx cancels only
// this caller's wait — an in-flight build owned by other waiters keeps
// running; a build with no waiters left is cancelled.
func (c *Cache) RangeIndex(ctx context.Context, key *Key, lo, hi int, est int64, build func(context.Context) (*lengthrange.RangeIndex, error)) (*lengthrange.RangeIndex, bool, error) {
	if err := faultinject.Check(ctx, faultinject.SiteCacheFill); err != nil {
		return nil, false, err
	}

	c.mu.Lock()
	e := c.lookupLocked(key, bucket{pre: key.pre, lo: lo, hi: hi})
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

// UFAIndex is RangeIndex over [length, length].
//
// Deprecated: use RangeIndex(ctx, key, n, n, est, build). The serving
// benchmark (perfbench, a separate module) still calls it.
func (c *Cache) UFAIndex(ctx context.Context, key *Key, length int, est int64, build func(context.Context) (*lengthrange.RangeIndex, error)) (*lengthrange.RangeIndex, bool, error) {
	return c.RangeIndex(ctx, key, length, length, est, build)
}

// lookupLocked returns the entry of bucket b whose normal form is the
// key's, linking a fresh empty one into the bucket when there is none.
func (c *Cache) lookupLocked(key *Key, b bucket) *entry {
	for _, e := range c.entries[b] {
		if automata.Equal(key.norm, e.norm) {
			return e
		}
	}
	e := &entry{bucket: b, norm: key.norm}
	c.entries[b] = append(c.entries[b], e)
	return e
}

// unlinkLocked removes e from its bucket, and the bucket from the map
// once it is empty.
func (c *Cache) unlinkLocked(e *entry) {
	es := slices.DeleteFunc(c.entries[e.bucket], func(x *entry) bool { return x == e })
	if len(es) == 0 {
		delete(c.entries, e.bucket)
	} else {
		c.entries[e.bucket] = es
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
// publishes the result to the entry and every waiter. A failed build —
// abandoned ones included, whose context the last waiter cancelled —
// unlinks its entry.
func (c *Cache) runBuild(e *entry, f *flight, bctx context.Context, est int64, build func(context.Context) (*lengthrange.RangeIndex, error)) {
	defer f.cancel() // release the flight context in every path
	val, err := build(bctx)
	c.mu.Lock()
	defer c.mu.Unlock()
	f.val, f.err = val, err
	e.flight = nil
	if err == nil {
		c.installLocked(e, val, est)
	} else {
		c.buildErrors++
		c.unlinkLocked(e)
	}
	close(f.done)
}

func (c *Cache) installLocked(e *entry, val *lengthrange.RangeIndex, est int64) {
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
	c.unlinkLocked(e)
}

// Stats is a snapshot of the cache-wide counters.
type Stats struct {
	Hits, Misses uint64
	Builds       uint64
	BuildErrors  uint64
	Evictions    uint64
	Entries      int
	Bytes        int64
	Budget       int64
}

func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d builds=%d errors=%d evictions=%d entries=%d bytes=%d budget=%d",
		s.Hits, s.Misses, s.Builds, s.BuildErrors, s.Evictions, s.Entries, s.Bytes, s.Budget)
}

// Stats returns a snapshot of the cache-wide counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Builds:      c.builds,
		BuildErrors: c.buildErrors,
		Evictions:   c.evictions,
		Entries:     c.lru.Len(),
		Bytes:       c.bytes,
		Budget:      c.budget,
	}
}

// EntryStats is the per-entry accounting exported for metrics. An entry
// is labelled by its normal form's pre-hash and state count, which name
// it without carrying the automaton; two entries may share both.
type EntryStats struct {
	Pre    uint64
	States int
	Lo, Hi int
	Bytes  int64
	Hits   uint64
	Misses uint64
	Builds uint64
}

// EntryStats returns per-entry counters for every resident entry, most
// recently used first.
func (c *Cache) EntryStats() []EntryStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]EntryStats, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		out = append(out, EntryStats{
			Pre:    e.bucket.pre,
			States: e.norm.NumStates(),
			Lo:     e.bucket.lo,
			Hi:     e.bucket.hi,
			Bytes:  e.bytes,
			Hits:   e.hits,
			Misses: e.misses,
			Builds: e.builds,
		})
	}
	return out
}
