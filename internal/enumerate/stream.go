package enumerate

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/automata"
	"repro/internal/faultinject"
	"repro/internal/par"
)

// Shard identifies one cell of a sharded enumeration: a decision prefix
// (KindUFA) or a word prefix (KindNFA), restricted to the prefix node's
// subtrees with first decision/symbol ≥ lo (lo is 0 for cells produced by
// Shards; SplitSteal mints cells with a positive lower bound). Cells
// produced by Shards partition the language slice; an empty prefix with
// lo 0 is the whole range.
type Shard struct {
	kind   byte
	prefix []int
	lo     int
	ceil   []int
}

// Prefix returns the cell's prefix (decision indices or symbols, per kind).
// The caller must not mutate it.
func (s Shard) Prefix() []int { return s.prefix }

// Kind returns the shard's cursor kind (KindUFA or KindNFA).
func (s Shard) Kind() byte { return s.kind }

// Lo returns the first admissible decision/symbol at the prefix node: the
// cell covers only subtrees with index ≥ Lo (0 for Shards-produced cells).
func (s Shard) Lo() int { return s.lo }

// Ceil returns the cell's lexicographic ceiling path (nil = unbounded):
// the cell ends at the last word of the ceiling subtree. SplitSteal pins a
// victim's ceiling so the cell never re-enters a stolen range, no matter
// how it is later suspended, reopened, or serialized. The caller must not
// mutate it.
func (s Shard) Ceil() []int { return s.ceil }

// Defaults for the scheduler knobs (see StreamOptions).
const (
	// DefaultMergeBudget is the default cap on words buffered ahead of the
	// consumer across all cells.
	DefaultMergeBudget = 1024
	// DefaultStealThreshold is the default number of words a cell must
	// produce between splits before idle workers may re-shard it.
	DefaultStealThreshold = 64
	// DefaultDeliveryBatch is the default number of words the consumer
	// pops per lock acquisition.
	DefaultDeliveryBatch = 64
)

// StreamOptions configure sharded parallel enumeration.
type StreamOptions struct {
	// Ctx, when non-nil, cancels the stream cooperatively: a watcher
	// stops the scheduler the moment the context is done, and the
	// consumer re-checks it at every delivery-batch boundary (never
	// inside the hot loops). A cancelled stream reports ctx.Err() from
	// Err, hands out at most the one delivery batch it had already
	// popped, and still serializes its full undelivered frontier from
	// Token — cancellation is a checkpoint, not corruption.
	Ctx context.Context
	// Workers is the number of goroutines enumerating cells
	// (0 = GOMAXPROCS).
	Workers int
	// Shards is the target initial prefix-cell count (0 = 4×Workers; with
	// work-stealing enabled the initial split only seeds the scheduler —
	// skewed cells are re-sharded on the fly).
	Shards int
	// Ordered emits outputs in the canonical serial order (cells are
	// merged in shard order); unordered mode emits in per-shard arrival
	// order for maximum throughput.
	Ordered bool
	// MergeBudget caps the total number of words buffered ahead of the
	// consumer, across all cells (0 = DefaultMergeBudget, minimum 1). In
	// ordered mode a cell that would overrun the budget is suspended —
	// spilled to its cursor — and reopened when the canonical frontier
	// reaches it, so peak buffering never exceeds the budget no matter how
	// skewed the language is; in unordered mode producers simply block.
	MergeBudget int
	// StealThreshold is the number of words a cell must have produced
	// since it was opened or last split before an idle worker may re-shard
	// it at its current frontier (0 = DefaultStealThreshold; < 0 disables
	// work-stealing, reproducing the static fan-out).
	StealThreshold int
	// DeliveryBatch is the number of buffered words the consumer pops per
	// lock acquisition (0 = DefaultDeliveryBatch; 1 = one word per lock,
	// the pre-batching behavior). Larger batches cut consumer-lock
	// contention; the merge-budget bound on producer-side buffering is
	// unaffected (popped words move to the consumer's private batch).
	DeliveryBatch int
}

// workers resolves the worker count.
func (o StreamOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// budget resolves MergeBudget.
func (o StreamOptions) budget() int {
	if o.MergeBudget > 0 {
		return o.MergeBudget
	}
	return DefaultMergeBudget
}

// stealThreshold resolves StealThreshold; ok=false means stealing is off.
func (o StreamOptions) stealThreshold() (int, bool) {
	if o.StealThreshold < 0 {
		return 0, false
	}
	if o.StealThreshold == 0 {
		return DefaultStealThreshold, true
	}
	return o.StealThreshold, true
}

// deliveryBatch resolves DeliveryBatch.
func (o StreamOptions) deliveryBatch() int {
	if o.DeliveryBatch > 0 {
		return o.DeliveryBatch
	}
	return DefaultDeliveryBatch
}

// cellEnum is what the scheduler needs from a shard enumerator beyond
// Next: cooperative splitting, the pinned path after a split, and the
// global position for tokens. Both concrete enumerators implement it, and
// using the interface (instead of per-call type switches) turns a missing
// method on a future enumerator kind into a compile error at the open
// callback.
type cellEnum interface {
	Enumerator
	SplitSteal() (Shard, bool)
	PinnedPath() []int
	Cursor() Cursor
	// Remaining reports the exact number of words the cell has yet to
	// produce, when the enumerator carries a counting index (UFA cells);
	// ok=false falls the scheduler back to the words-since-last-split
	// proxy for victim selection.
	Remaining() (*big.Int, bool)
}

// wordBuf wraps a word buffer so pool round-trips move one pointer instead
// of boxing a slice header. pos is the enumerator position after emitting w
// (the decision vector for KindUFA; nil for KindNFA, where the word itself
// is the position) — it is what frontier tokens record per cell.
type wordBuf struct {
	w   automata.Word
	pos []int
}

// segState is a segment's scheduling state.
type segState uint8

const (
	// segPending: ready to be claimed by a worker.
	segPending segState = iota
	// segRunning: a producer goroutine owns the segment's enumerator.
	segRunning
	// segSuspended: spilled under budget pressure; production is paused
	// (the enumerator is parked on the segment) until the consumer's
	// frontier reaches it.
	segSuspended
	// segDone: the cell's range is exhausted (buffered words may remain).
	segDone
)

func (s segState) String() string {
	switch s {
	case segPending:
		return "pending"
	case segRunning:
		return "running"
	case segSuspended:
		return "suspended"
	}
	return "done"
}

// segment is one schedulable cell. The linked list through next is kept in
// canonical language order at all times: SplitSteal inserts the stolen cell
// immediately after its victim, whose remaining range precedes it.
type segment struct {
	id    int
	shard Shard
	start []int // resume-after position for the first open (nil = cell start)

	state segState   // guarded by Stream.mu
	buf   []*wordBuf // produced, not yet delivered; guarded by Stream.mu
	off   int        // buf[:off] already delivered (popped front); guarded by Stream.mu

	deliv    []int // position of the last popped word (nil until first); guarded by Stream.mu
	produced int   // words produced in total (stats); guarded by Stream.mu
	since    int   // words produced since open/last split (steal pacing); guarded by Stream.mu
	steals   int   // successful splits of this cell; guarded by Stream.mu
	spills   int   // times this cell was suspended or had its buffer dropped; guarded by Stream.mu
	stealReq bool  // an idle worker asked the owner to split; guarded by Stream.mu
	// remaining is the exact number of words the cell's enumerator has
	// yet to produce (UFA cells with a counting index; nil = unknown, the
	// since proxy is used instead). Set when the cell is (re)opened,
	// decremented per committed word, recomputed after a split — all
	// guarded by Stream.mu.
	remaining *big.Int

	next *segment // canonical-order link; guarded by Stream.mu
}

// pending reports how many buffered words await delivery.
func (s *segment) pendingLocked() int { return len(s.buf) - s.off }

// resumePosLocked is the cell's spill cursor: the position after which
// production must resume when the cell is (re)opened — the last buffered
// word if any, else the last delivered word, else the cell's start. A nil
// result means the cell restarts from its beginning. Suspended cells hold
// no enumerator at all: this cursor plus the shard descriptor (with its
// ceiling) is the cell's entire persistent state.
func (s *segment) resumePosLocked() []int {
	if s.pendingLocked() > 0 {
		b := s.buf[len(s.buf)-1]
		if b.pos != nil {
			return append([]int(nil), b.pos...)
		}
		return append([]int(nil), b.w...)
	}
	if s.deliv != nil {
		return append([]int(nil), s.deliv...)
	}
	if s.start != nil {
		return append([]int(nil), s.start...)
	}
	return nil
}

// ShardStat is one cell's scheduler statistics (see Stream.Stats).
type ShardStat struct {
	ID       int    `json:"id"`
	Prefix   []int  `json:"prefix"`
	Lo       int    `json:"lo,omitempty"`
	State    string `json:"state"`
	Produced int    `json:"produced"`
	Steals   int    `json:"steals,omitempty"`
	Spills   int    `json:"spills,omitempty"`
}

// StreamStats is a snapshot of the scheduler: per-cell completion counts
// plus the global steal/spill totals and the peak number of buffered words
// (which never exceeds the merge budget).
type StreamStats struct {
	Cells        []ShardStat `json:"cells"`
	Delivered    int         `json:"delivered"`
	Steals       int         `json:"steals"`
	SoftSpills   int         `json:"soft_spills"`
	HardSpills   int         `json:"hard_spills"`
	PeakBuffered int         `json:"peak_buffered"`
	MergeBudget  int         `json:"merge_budget"`
}

// Stream is a parallel enumeration session over prefix cells, scheduled by
// work-stealing: idle workers ask the busiest running cell to re-shard at
// its current frontier, so skewed languages keep every worker busy. It
// implements Session; Next is for a single consumer goroutine. Words
// returned by Next are valid until the following call (buffers are
// recycled through a pool).
type Stream struct {
	kind   byte
	fp     uint32
	length int
	shards []Shard // initial cells, for diagnostics
	open   func(Shard, []int) (cellEnum, error)
	opts   StreamOptions

	// Resolved knobs (see StreamOptions).
	budgetN   int
	threshold int
	stealOK   bool
	batchN    int

	mu       sync.Mutex
	workCond *sync.Cond // workers wait: new pending cell, head advance, stop
	roomCond *sync.Cond // producers wait: budget room, spillable cell, stop
	consCond *sync.Cond // consumer waits: words buffered, cell done, stop

	head     *segment   // first not-fully-delivered segment (canonical order); guarded by mu
	all      []*segment // guarded by mu
	buffered int        // guarded by mu
	peak     int        // guarded by mu
	nextID   int        // guarded by mu
	stopped  bool       // guarded by mu
	err      error      // guarded by mu

	delivered  int // guarded by mu
	steals     int // guarded by mu
	softSpills int // guarded by mu
	hardSpills int // guarded by mu

	roomWaiters int // guarded by mu

	group par.Group
	pool  sync.Pool
	prev  *wordBuf

	// The consumer's private delivery batch: up to batchN words popped
	// from one segment per lock acquisition, handed out by Next without
	// re-locking. Only the consumer goroutine touches these fields outside
	// the mutex; Token (same goroutine) reads them under it. closed gates
	// the lock-free fast path after Close — the batch itself is kept so a
	// post-Close Token still accounts for its unconsumed tail.
	batch      []*wordBuf
	batchIdx   int
	batchSeg   *segment
	batchStart []int // batchSeg's popped position before this batch (nil if none)
	closed     atomic.Bool

	// watchDone releases the context watcher goroutine (launched only
	// when opts.Ctx is non-nil) at Close, so a stream that outlives its
	// context — or is closed before it fires — reaps the watcher with
	// the rest of the group.
	watchDone chan struct{}
	watchOnce sync.Once
}

// initialSeg seeds the scheduler with one cell, optionally mid-cell.
type initialSeg struct {
	shard Shard
	start []int
}

// newStream builds the segment list, launches the workers and returns the
// consumable stream.
func newStream(kind byte, fp uint32, length int, inits []initialSeg, open func(Shard, []int) (cellEnum, error), opts StreamOptions) *Stream {
	st := &Stream{
		kind:   kind,
		fp:     fp,
		length: length,
		open:   open,
		opts:   opts,
	}
	st.budgetN = opts.budget()
	st.threshold, st.stealOK = opts.stealThreshold()
	st.batchN = opts.deliveryBatch()
	st.workCond = sync.NewCond(&st.mu)
	st.roomCond = sync.NewCond(&st.mu)
	st.consCond = sync.NewCond(&st.mu)
	st.pool.New = func() any {
		b := &wordBuf{w: make(automata.Word, length)}
		if kind == KindUFA {
			b.pos = make([]int, length)
		}
		return b
	}
	var tail *segment
	for _, in := range inits {
		seg := &segment{id: st.nextID, shard: in.shard, start: in.start}
		st.nextID++
		st.shards = append(st.shards, in.shard)
		st.all = append(st.all, seg)
		if tail == nil {
			st.head = seg
		} else {
			tail.next = seg
		}
		tail = seg
	}
	for w := 0; w < opts.workers(); w++ {
		st.group.Go(st.worker)
	}
	if ctx := opts.Ctx; ctx != nil {
		st.watchDone = make(chan struct{})
		st.group.Go(func() {
			select {
			case <-ctx.Done():
				st.fail(ctx.Err())
			case <-st.watchDone:
			}
		})
	}
	return st
}

// fail records the first error and stops the stream.
func (st *Stream) fail(err error) {
	st.mu.Lock()
	st.failLocked(err)
	st.mu.Unlock()
}

// failLocked records the first error and stops the stream (mu held).
func (st *Stream) failLocked(err error) {
	if st.err == nil {
		st.err = err
	}
	st.stopLocked()
}

// stopLocked halts the scheduler and wakes everyone.
func (st *Stream) stopLocked() {
	st.stopped = true
	st.workCond.Broadcast()
	st.roomCond.Broadcast()
	st.consCond.Broadcast()
}

// worker claims cells and produces until the stream is exhausted/stopped.
// A claimed cell is always reopened from its descriptor (shard + spill
// cursor): suspended cells park no state beyond that, which is what caps
// the scheduler's memory at the merge budget plus one open enumerator per
// worker.
func (st *Stream) worker() {
	for {
		seg, pos, ok := st.claim()
		if !ok {
			return
		}
		e, err := st.open(seg.shard, pos)
		if err != nil {
			st.fail(err)
			return
		}
		st.produce(seg, e)
	}
}

// claim hands out the claimable cell nearest the consume point: pending
// cells and suspended cells (whose parked enumerator nobody owns) alike.
// With nothing claimable it picks a steal victim — the running cell with
// the most remaining words, exactly counted when its enumerator carries a
// counting index and estimated by words-since-last-split otherwise —
// flags it, and waits for the owner to publish the stolen cell. Returns ok=false when the stream is
// exhausted/stopped. Cells other than the head are not claimed while the
// budget is full: any word they produced would immediately spill again.
func (st *Stream) claim() (*segment, []int, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.stopped || st.head == nil {
			return nil, nil, false
		}
		full := st.buffered >= st.budgetN
		var victim *segment
		allDone := true
		for s := st.head; s != nil; s = s.next {
			if s.state != segDone {
				allDone = false
			}
			claimable := s.state == segPending || s.state == segSuspended
			if claimable && (!st.opts.Ordered || !full || s == st.head) {
				s.state = segRunning
				return s, s.resumePosLocked(), true
			}
			if st.stealOK && s.state == segRunning && !s.stealReq && s.since >= st.threshold {
				if victim == nil || biggerCellLocked(s, victim) {
					victim = s
				}
			}
		}
		if allDone {
			return nil, nil, false
		}
		if victim != nil {
			victim.stealReq = true
		}
		st.workCond.Wait()
	}
}

// biggerCellLocked orders steal candidates: by exact remaining word count
// when both cells carry one, by the words-since-last-split proxy
// otherwise.
func biggerCellLocked(a, b *segment) bool {
	if a.remaining != nil && b.remaining != nil {
		return a.remaining.Cmp(b.remaining) > 0
	}
	return a.since > b.since
}

// setRemaining snapshots the cell's exact remaining size from its freshly
// opened enumerator (nil when the enumerator cannot count).
func (st *Stream) setRemaining(seg *segment, e cellEnum) {
	rem, _ := e.Remaining()
	st.mu.Lock()
	seg.remaining = rem
	st.mu.Unlock()
}

// produce drains one cell into its buffer: each round reserves a budget
// slot (which is where steal requests are honored and spills happen —
// before a word is in hand, so nothing is ever lost), produces the next
// word, and commits it. It returns when the cell is exhausted, suspended,
// or the stream stops.
func (st *Stream) produce(seg *segment, e cellEnum) {
	st.setRemaining(seg, e)
	for {
		if !st.reserve(seg, e) {
			return
		}
		w, ok := e.Next()
		if !ok {
			st.finish(seg)
			return
		}
		b := st.pool.Get().(*wordBuf)
		copy(b.w, w)
		if ue, isUFA := e.(*UFAEnumerator); isUFA {
			copy(b.pos, ue.choice)
		}
		st.commit(seg, b)
	}
}

// victimCeil picks the tighter of a cell's old ceiling and the pinned path
// left by a split: the old ceiling only stays binding when it extends the
// pinned path (a deeper bound along the same branch).
func victimCeil(ceil, pinned []int) []int {
	if len(ceil) >= len(pinned) {
		ext := true
		for i := range pinned {
			if ceil[i] != pinned[i] {
				ext = false
				break
			}
		}
		if ext {
			return ceil
		}
	}
	return pinned
}

// reserve claims one budget slot before the cell's next word is produced,
// enforcing the merge budget. In ordered mode a non-head producer that
// finds the budget full suspends its cell (soft spill: the enumerator
// parks on the segment, buffered words stay); the head producer instead
// reclaims room by dropping the buffer of the furthest suspended-or-done
// cell (hard spill: those words are re-produced when the cell reopens from
// its start cursor), waiting only when every buffered word is its own.
// Steal requests are honored here, between two Next calls. Returns false
// when the producer should release the cell (suspended or stopped).
func (st *Stream) reserve(seg *segment, e cellEnum) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if seg.stealReq {
		seg.stealReq = false
		if err := faultinject.Hit(faultinject.SiteStealSplit); err != nil {
			st.failLocked(err)
			return false
		}
		if s, ok := e.SplitSteal(); ok {
			st.insertAfterLocked(seg, s)
			// The victim's remaining range is now bounded by its pinned
			// path; record it as the cell's ceiling so any later reopen
			// (spill, token) stays out of the stolen range.
			seg.shard.ceil = victimCeil(seg.shard.ceil, e.PinnedPath())
			seg.since = 0
			seg.steals++
			st.steals++
			// The victim's range shrank to its pinned path; refresh its
			// exact size so the next victim choice sees the split.
			if rem, ok := e.Remaining(); ok {
				seg.remaining = rem
			}
		}
		st.workCond.Broadcast()
	}
	for st.buffered >= st.budgetN && !st.stopped {
		if st.opts.Ordered && seg != st.head {
			if err := faultinject.Hit(faultinject.SiteMergeSpill); err != nil {
				st.failLocked(err)
				return false
			}
			// Soft spill: the cell collapses to its descriptor + spill
			// cursor (the enumerator is discarded); the consumer or an
			// idle worker reopens it once the budget frees.
			seg.state = segSuspended
			seg.spills++
			st.softSpills++
			seg.stealReq = false
			st.roomCond.Broadcast() // the head producer may now reclaim room
			st.workCond.Broadcast() // steal waiters must pick a new victim
			return false
		}
		if st.opts.Ordered {
			if v := st.spillableLocked(seg); v != nil {
				if err := faultinject.Hit(faultinject.SiteMergeSpill); err != nil {
					st.failLocked(err)
					return false
				}
				st.dropBufferLocked(v)
				continue
			}
		}
		st.roomWaiters++
		st.roomCond.Wait()
		st.roomWaiters--
	}
	if st.stopped {
		return false
	}
	st.buffered++
	if st.buffered > st.peak {
		st.peak = st.buffered
	}
	return true
}

// commit fills the slot reserved by reserve with the produced word. Each
// time the cell's since-last-split counter crosses a multiple of the steal
// threshold, waiting workers are woken so they can flag it — the liveness
// edge that makes stealing independent of goroutine scheduling (a worker
// that went idle before the cell became eligible still learns about it).
func (st *Stream) commit(seg *segment, b *wordBuf) {
	st.mu.Lock()
	seg.buf = append(seg.buf, b)
	seg.produced++
	seg.since++
	if seg.remaining != nil && seg.remaining.Sign() > 0 {
		seg.remaining.Sub(seg.remaining, bigOne)
	}
	if st.stealOK && seg.since%st.threshold == 0 {
		st.workCond.Broadcast()
	}
	st.consCond.Signal()
	st.mu.Unlock()
}

// finish releases an unused reservation and retires an exhausted cell.
func (st *Stream) finish(seg *segment) {
	st.mu.Lock()
	st.buffered--
	seg.state = segDone
	seg.stealReq = false
	st.workCond.Broadcast()
	st.consCond.Signal()
	if st.roomWaiters > 0 {
		st.roomCond.Broadcast()
	}
	st.mu.Unlock()
}

// insertAfterLocked links a freshly stolen cell right after its victim and
// publishes it as pending work.
func (st *Stream) insertAfterLocked(victim *segment, s Shard) {
	seg := &segment{id: st.nextID, shard: s, state: segPending, next: victim.next}
	st.nextID++
	victim.next = seg
	st.all = append(st.all, seg)
}

// spillableLocked returns the furthest-from-the-frontier cell whose buffer
// can be dropped to make room: suspended or done, with undelivered words,
// and not the caller's own cell.
func (st *Stream) spillableLocked(self *segment) *segment {
	var last *segment
	for s := st.head; s != nil; s = s.next {
		if s != self && s != st.head && s.pendingLocked() > 0 && (s.state == segSuspended || s.state == segDone) {
			last = s
		}
	}
	return last
}

// dropBufferLocked is the hard spill: the cell's undelivered words are
// returned to the pool and the cell reverts to pending, to be re-produced
// when the scheduler gets back to it. The restart cursor (resumePosLocked)
// falls back to the last delivered word or the cell start, and the shard
// ceiling keeps the re-production inside the cell's current range, so the
// dropped words — and only they — are produced again.
func (st *Stream) dropBufferLocked(seg *segment) {
	for _, b := range seg.buf[seg.off:] {
		st.pool.Put(b)
	}
	st.buffered -= seg.pendingLocked()
	seg.buf = seg.buf[:0]
	seg.off = 0
	seg.state = segPending
	seg.stealReq = false
	seg.spills++
	st.hardSpills++
	st.workCond.Broadcast()
}

// resumeLocked turns a suspended cell back into claimable work.
func (st *Stream) resumeLocked(seg *segment) {
	seg.state = segPending
	st.workCond.Broadcast()
}

// popBatchLocked moves up to batchN undelivered words from the segment's
// buffer into the consumer's private batch — one lock acquisition serves
// the whole run of Next calls that drains it — records the last popped
// position as the segment's resume point, releases the freed budget to
// the producers, and returns the first word. Popped words live only in the
// batch: a later buffer drop or reopen of the cell resumes production
// after them, and Token accounts for the not-yet-consumed tail (see
// Token).
func (st *Stream) popBatchLocked(seg *segment) *wordBuf {
	k := seg.pendingLocked()
	if k > st.batchN {
		k = st.batchN
	}
	st.batch = st.batch[:0]
	st.batchSeg = seg
	st.batchStart = nil
	if seg.deliv != nil {
		st.batchStart = append([]int(nil), seg.deliv...)
	}
	for i := 0; i < k; i++ {
		st.batch = append(st.batch, seg.buf[seg.off])
		seg.buf[seg.off] = nil
		seg.off++
	}
	if seg.off == len(seg.buf) {
		seg.buf = seg.buf[:0]
		seg.off = 0
	}
	wasFull := st.buffered >= st.budgetN
	st.buffered -= k
	last := st.batch[k-1]
	if seg.deliv == nil {
		seg.deliv = make([]int, st.length)
	}
	if last.pos != nil {
		copy(seg.deliv, last.pos)
	} else {
		copy(seg.deliv, last.w)
	}
	st.delivered += k
	if st.roomWaiters > 0 {
		st.roomCond.Broadcast()
	}
	if wasFull && st.buffered < st.budgetN {
		st.workCond.Broadcast() // budget-gated pending cells are claimable again
	}
	b := st.batch[0]
	st.batch[0] = nil
	st.batchIdx = 1
	return b
}

// Next implements Enumerator for the single consumer goroutine. In ordered
// mode outputs arrive in the canonical serial order; otherwise in
// per-cell arrival order. The returned word is valid until the following
// call to Next. Words already popped into the consumer's batch are handed
// out without touching the stream mutex.
func (st *Stream) Next() (automata.Word, bool) {
	if st.batchIdx < len(st.batch) && !st.closed.Load() {
		b := st.batch[st.batchIdx]
		st.batch[st.batchIdx] = nil
		st.batchIdx++
		return st.deliver(b), true
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.opts.Ordered {
		return st.nextOrderedLocked()
	}
	return st.nextUnorderedLocked()
}

func (st *Stream) nextOrderedLocked() (automata.Word, bool) {
	for {
		if st.stopped || st.head == nil {
			return nil, false
		}
		h := st.head
		if h.pendingLocked() > 0 {
			if err := faultinject.Check(st.opts.Ctx, faultinject.SiteDeliveryBatch); err != nil {
				st.failLocked(err)
				return nil, false
			}
			return st.deliver(st.popBatchLocked(h)), true
		}
		switch h.state {
		case segDone:
			st.head = h.next
			if st.head != nil && st.head.state == segSuspended {
				st.resumeLocked(st.head)
			}
			st.workCond.Broadcast() // claim priority shifted to the new head
			continue
		case segSuspended:
			st.resumeLocked(h)
		}
		st.consCond.Wait()
	}
}

func (st *Stream) nextUnorderedLocked() (automata.Word, bool) {
	for {
		if st.stopped {
			return nil, false
		}
		// Unlink fully delivered cells as they are encountered; deliver
		// from the first cell with buffered words.
		var prev *segment
		allDone := true
		for s := st.head; s != nil; s = s.next {
			if s.pendingLocked() > 0 {
				if err := faultinject.Check(st.opts.Ctx, faultinject.SiteDeliveryBatch); err != nil {
					st.failLocked(err)
					return nil, false
				}
				return st.deliver(st.popBatchLocked(s)), true
			}
			if s.state == segDone {
				if prev == nil {
					st.head = s.next
				} else {
					prev.next = s.next
				}
				continue
			}
			allDone = false
			prev = s
		}
		if st.head == nil || allDone {
			return nil, false
		}
		st.consCond.Wait()
	}
}

// deliver recycles the previously returned buffer and hands out the next.
func (st *Stream) deliver(b *wordBuf) automata.Word {
	if st.prev != nil {
		st.pool.Put(st.prev)
	}
	st.prev = b
	return b.w
}

// Token implements Session: the serialized multi-cell frontier — every
// not-fully-delivered cell in canonical order, with the last delivered
// position of the cells that already emitted. Resuming the token (serially
// via Resume, or in parallel via core's EnumerateFrom with Workers > 1)
// yields exactly the undelivered words. Safe to call between Next calls on
// the consumer goroutine, including after exhaustion.
func (st *Stream) Token() (string, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	f := Frontier{Kind: st.kind, Length: st.length, FP: st.fp}
	// Words popped into the consumer's batch but not yet handed out are
	// undelivered: their segment serializes at the last *consumed*
	// position, so a resume re-emits the batch tail.
	batchTail := len(st.batch) - st.batchIdx
	for s := st.head; s != nil; s = s.next {
		inBatch := s == st.batchSeg && batchTail > 0
		if s.state == segDone && s.pendingLocked() == 0 && !inBatch {
			continue
		}
		seg := FrontierSeg{
			Prefix: append([]int(nil), s.shard.prefix...),
			Lo:     s.shard.lo,
			Ceil:   append([]int(nil), s.shard.ceil...),
		}
		switch {
		case inBatch:
			// The last consumed word is st.prev (delivered entries are
			// nil'd in the batch; prev is not pooled until the next
			// delivery), so the segment resumes just after it.
			var pos []int
			if st.batchIdx > 0 && st.prev != nil {
				if st.prev.pos != nil {
					pos = st.prev.pos
				} else {
					pos = st.prev.w
				}
			} else {
				pos = st.batchStart
			}
			if pos != nil {
				seg.Pos = append([]int(nil), pos...)
			}
		case s.deliv != nil:
			seg.Pos = append([]int(nil), s.deliv...)
		case s.start != nil:
			seg.Pos = append([]int(nil), s.start...)
		}
		f.Segs = append(f.Segs, seg)
	}
	return f.Token(), true
}

// Err reports the first cell-open failure that ended the stream early (nil
// for a normal drain). Check it when Next returns false.
func (st *Stream) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// Close stops the workers and waits for them to exit. Outputs already
// buffered (including the consumer's batch tail) are discarded; Next
// returns false afterwards, while Token still serializes every
// undelivered word — so checkpoint-after-Close keeps working. Safe to
// call more than once and after exhaustion.
func (st *Stream) Close() {
	st.closed.Store(true)
	st.mu.Lock()
	st.stopLocked()
	st.mu.Unlock()
	if st.watchDone != nil {
		st.watchOnce.Do(func() { close(st.watchDone) })
	}
	st.group.Wait()
}

// Shards reports the initial prefix cells the stream was seeded with, for
// diagnostics; Stats covers the cells minted by work-stealing too.
func (st *Stream) Shards() []Shard { return st.shards }

// Stats snapshots the scheduler: per-cell production counts (including
// stolen cells), steal/spill totals, and the peak buffered-word count.
func (st *Stream) Stats() StreamStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	stats := StreamStats{
		Delivered:    st.delivered,
		Steals:       st.steals,
		SoftSpills:   st.softSpills,
		HardSpills:   st.hardSpills,
		PeakBuffered: st.peak,
		MergeBudget:  st.budgetN,
	}
	for _, s := range st.all {
		stats.Cells = append(stats.Cells, ShardStat{
			ID:       s.id,
			Prefix:   append([]int(nil), s.shard.prefix...),
			Lo:       s.shard.lo,
			State:    s.state.String(),
			Produced: s.produced,
			Steals:   s.steals,
			Spills:   s.spills,
		})
	}
	return stats
}

// Fprint renders the snapshot as the human-readable per-shard listing the
// CLIs print under -v: one header line with the global counters, then one
// line per cell. Shared so every front end reports the scheduler the same
// way.
func (s StreamStats) Fprint(w io.Writer) {
	fmt.Fprintf(w, "# shards: %d  delivered: %d  steals: %d  spills: %d soft / %d hard  peak buffer: %d/%d words\n",
		len(s.Cells), s.Delivered, s.Steals, s.SoftSpills, s.HardSpills, s.PeakBuffered, s.MergeBudget)
	for _, c := range s.Cells {
		extra := ""
		if c.Lo > 0 {
			extra = fmt.Sprintf(" lo=%d", c.Lo)
		}
		fmt.Fprintf(w, "#   shard %d prefix=%v%s %s: %d words, %d steals, %d spills\n",
			c.ID, c.Prefix, extra, c.State, c.Produced, c.Steals, c.Spills)
	}
}

// SessionStats extracts scheduler statistics from a session when it is (or
// wraps, via Unwrap) a parallel Stream; ok=false for serial sessions.
func SessionStats(s Session) (StreamStats, bool) {
	for {
		if st, ok := s.(*Stream); ok {
			return st.Stats(), true
		}
		u, ok := s.(interface{ Unwrap() Session })
		if !ok {
			return StreamStats{}, false
		}
		s = u.Unwrap()
	}
}

// shardTarget resolves StreamOptions.Shards.
func shardTarget(opts StreamOptions) int {
	if opts.Shards > 0 {
		return opts.Shards
	}
	return 4 * opts.workers()
}

// freshInits wraps Shards-produced cells as scheduler seeds.
func freshInits(shards []Shard) []initialSeg {
	inits := make([]initialSeg, len(shards))
	for i, s := range shards {
		inits[i] = initialSeg{shard: s}
	}
	return inits
}

// ensureStreamIndex builds the counting index before workers launch when
// the scheduler will use it (stealing on): the forked cell enumerators
// then all share it, enabling exact victim selection and size-balanced
// splits.
func (e *UFAEnumerator) ensureStreamIndex(opts StreamOptions) {
	if _, stealing := opts.stealThreshold(); stealing {
		e.EnsureIndex()
	}
}

// Stream opens a sharded parallel enumeration of this enumerator's range,
// sharing its precomputation. The receiver must be fresh (not yet
// iterated) and must not be used while the stream runs.
func (e *UFAEnumerator) Stream(opts StreamOptions) *Stream {
	e.ensureStreamIndex(opts)
	inits := freshInits(e.Shards(shardTarget(opts)))
	return newStream(KindUFA, e.fp, e.dag.N, inits, func(s Shard, pos []int) (cellEnum, error) {
		return e.OpenShardAt(s, pos)
	}, opts)
}

// StreamFrom reopens a parallel enumeration at a frontier recorded by a
// previous session's Token, sharing this enumerator's precomputation: the
// stream emits exactly the frontier's undelivered words.
func (e *UFAEnumerator) StreamFrom(f Frontier, opts StreamOptions) (*Stream, error) {
	e.ensureStreamIndex(opts)
	inits, err := frontierInits(f, KindUFA, e.fp, e.dag.N)
	if err != nil {
		return nil, err
	}
	return newStream(KindUFA, e.fp, e.dag.N, inits, func(s Shard, pos []int) (cellEnum, error) {
		return e.OpenShardAt(s, pos)
	}, opts), nil
}

// Stream opens a sharded parallel enumeration of this enumerator's range,
// sharing its precomputation. The receiver must be fresh (not yet
// iterated) and must not be used while the stream runs.
func (e *NFAEnumerator) Stream(opts StreamOptions) *Stream {
	inits := freshInits(e.Shards(shardTarget(opts)))
	return newStream(KindNFA, e.fp, e.length, inits, func(s Shard, pos []int) (cellEnum, error) {
		return e.OpenShardAt(s, pos)
	}, opts)
}

// StreamFrom reopens a parallel enumeration at a frontier recorded by a
// previous session's Token, under the same contract as the UFA variant.
func (e *NFAEnumerator) StreamFrom(f Frontier, opts StreamOptions) (*Stream, error) {
	inits, err := frontierInits(f, KindNFA, e.fp, e.length)
	if err != nil {
		return nil, err
	}
	return newStream(KindNFA, e.fp, e.length, inits, func(s Shard, pos []int) (cellEnum, error) {
		return e.OpenShardAt(s, pos)
	}, opts), nil
}

// frontierInits validates a frontier against the built enumerator and
// converts its segments into scheduler seeds.
func frontierInits(f Frontier, kind byte, fp uint32, length int) ([]initialSeg, error) {
	if f.Kind != kind {
		return nil, fmt.Errorf("enumerate: frontier kind %q, want %q", f.Kind, kind)
	}
	if f.FP != fp {
		return nil, fmt.Errorf("enumerate: frontier fingerprint %08x does not match automaton (%08x)", f.FP, fp)
	}
	if f.Length != length {
		return nil, fmt.Errorf("enumerate: frontier length %d, want %d", f.Length, length)
	}
	inits := make([]initialSeg, len(f.Segs))
	for i, s := range f.Segs {
		inits[i] = initialSeg{
			shard: Shard{kind: kind, prefix: append([]int(nil), s.Prefix...), lo: s.Lo},
		}
		if len(s.Ceil) > 0 {
			inits[i].shard.ceil = append([]int(nil), s.Ceil...)
		}
		if s.Pos != nil {
			inits[i].start = append([]int(nil), s.Pos...)
		}
	}
	return inits, nil
}

// NewUFAStream is NewUFA followed by Stream: parallel constant-delay
// enumeration of L_n(N) for an unambiguous N.
func NewUFAStream(n *automata.NFA, length int, opts StreamOptions) (*Stream, error) {
	e, err := NewUFA(n, length)
	if err != nil {
		return nil, err
	}
	return e.Stream(opts), nil
}

// NewNFAStream is NewNFA followed by Stream: parallel polynomial-delay
// enumeration of L_n(N) for an arbitrary ε-free NFA.
func NewNFAStream(n *automata.NFA, length int, opts StreamOptions) (*Stream, error) {
	e, err := NewNFA(n, length)
	if err != nil {
		return nil, err
	}
	return e.Stream(opts), nil
}

// NewUFAStreamFrom resumes a parallel constant-delay enumeration from a
// frontier token's decoded form.
func NewUFAStreamFrom(n *automata.NFA, f Frontier, opts StreamOptions) (*Stream, error) {
	// Fingerprint (length-bound, see fpFor) before the length-sized
	// precomputation: a forged frontier must not buy a DAG build.
	if fp := fpFor(n, f.Length); f.FP != fp {
		return nil, fmt.Errorf("enumerate: frontier fingerprint %08x does not match automaton at this length (%08x)", f.FP, fp)
	}
	e, err := NewUFA(n, f.Length)
	if err != nil {
		return nil, err
	}
	return e.StreamFrom(f, opts)
}

// NewNFAStreamFrom resumes a parallel polynomial-delay enumeration from a
// frontier token's decoded form.
func NewNFAStreamFrom(n *automata.NFA, f Frontier, opts StreamOptions) (*Stream, error) {
	if fp := fpFor(n, f.Length); f.FP != fp {
		return nil, fmt.Errorf("enumerate: frontier fingerprint %08x does not match automaton at this length (%08x)", f.FP, fp)
	}
	e, err := NewNFA(n, f.Length)
	if err != nil {
		return nil, err
	}
	return e.StreamFrom(f, opts)
}

// ResumeFrontier reopens a paused parallel session's frontier as a serial
// session: the remaining cells are drained one after another, in frontier
// order. Its Token is again a frontier token, so serial and parallel
// resumption interoperate freely.
func ResumeFrontier(n *automata.NFA, f Frontier) (Session, error) {
	// Fingerprint (length-bound) before the length-sized precomputation,
	// as in NewUFAFrom.
	if fp := fpFor(n, f.Length); f.FP != fp {
		return nil, fmt.Errorf("enumerate: frontier fingerprint %08x does not match automaton at this length (%08x)", f.FP, fp)
	}
	var open func(Shard, []int) (cellEnum, error)
	switch f.Kind {
	case KindUFA:
		e, err := NewUFA(n, f.Length)
		if err != nil {
			return nil, err
		}
		open = func(s Shard, pos []int) (cellEnum, error) { return e.OpenShardAt(s, pos) }
	case KindNFA:
		e, err := NewNFA(n, f.Length)
		if err != nil {
			return nil, err
		}
		open = func(s Shard, pos []int) (cellEnum, error) { return e.OpenShardAt(s, pos) }
	default:
		return nil, fmt.Errorf("enumerate: unknown frontier kind %q", f.Kind)
	}
	return &chainSession{kind: f.Kind, fp: f.FP, length: f.Length, open: open, segs: f.Segs}, nil
}

// chainSession drains frontier cells serially: the serial face of a
// parallel resume token.
type chainSession struct {
	kind   byte
	fp     uint32
	length int
	open   func(Shard, []int) (cellEnum, error)
	segs   []FrontierSeg
	idx    int
	cur    cellEnum
	err    error
}

func (c *chainSession) Next() (automata.Word, bool) {
	if c.err != nil {
		return nil, false
	}
	for {
		if c.cur == nil {
			if c.idx >= len(c.segs) {
				return nil, false
			}
			s := c.segs[c.idx]
			e, err := c.open(Shard{kind: c.kind, prefix: s.Prefix, lo: s.Lo, ceil: ceilOrNil(s.Ceil)}, s.Pos)
			if err != nil {
				c.err = err
				return nil, false
			}
			c.cur = e
		}
		if w, ok := c.cur.Next(); ok {
			return w, true
		}
		c.cur = nil
		c.idx++
	}
}

// Token implements Session: the remaining cells, with the live cell's
// position taken from its enumerator. A session that failed mid-chain
// (Err != nil) still serializes every undelivered cell, the failed one
// included, so nothing is lost when the caller checkpoints after an error.
func (c *chainSession) Token() (string, bool) {
	f := Frontier{Kind: c.kind, FP: c.fp, Length: c.length}
	if c.idx < len(c.segs) {
		if c.cur != nil {
			seg := c.segs[c.idx]
			cu := c.cur.Cursor()
			switch cu.State {
			case CursorMid:
				seg.Pos = append([]int(nil), cu.Pos...)
				f.Segs = append(f.Segs, seg)
			case CursorFresh:
				f.Segs = append(f.Segs, seg)
			}
			// CursorDone: the live cell is exhausted; skip it.
			f.Segs = append(f.Segs, c.segs[c.idx+1:]...)
		} else {
			// Not yet opened — or its open failed: either way the whole
			// cell (and everything after it) is still undelivered.
			f.Segs = append(f.Segs, c.segs[c.idx:]...)
		}
	}
	return f.Token(), true
}

func (c *chainSession) Err() error { return c.err }
func (c *chainSession) Close()     {}

// ceilOrNil normalizes an empty ceiling to nil (unbounded).
func ceilOrNil(c []int) []int {
	if len(c) == 0 {
		return nil
	}
	return c
}
