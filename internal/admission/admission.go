// Package admission is the engine stack's request-admission policy: a
// Limits object bounding every resource a single request can commit the
// process to — word length, range span, automaton state count, the
// ordered-merge buffer, sample batch size, and the estimated byte
// footprint of a counting index — checked at each entry point BEFORE any
// length-sized precomputation starts. It promotes PR 3's
// fingerprint-before-precompute discipline to policy: fingerprints keep
// forged tokens from triggering huge builds, Limits keep honest-but-huge
// requests from doing the same.
//
// A nil *Limits means no policy (every check passes), so callers thread
// an optional pointer without guarding call sites; a zero field means
// that dimension is unlimited. Every rejection wraps ErrRejected, so
// serving tiers can map `errors.Is(err, admission.ErrRejected)` to an
// HTTP 4xx instead of a 5xx.
package admission

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrRejected is the sentinel wrapped by every admission failure.
var ErrRejected = errors.New("admission: request rejected")

// Limits bounds the per-request resources. The zero value (and a nil
// pointer) admits everything.
type Limits struct {
	// MaxLength bounds the word length n of any single-length request
	// (and the Hi of a range request). 0 = unlimited.
	MaxLength int
	// MaxRangeSpan bounds hi-lo+1, the number of lengths one range
	// request may sweep. 0 = unlimited.
	MaxRangeSpan int
	// MaxStates bounds the automaton state count admitted at instance
	// construction. 0 = unlimited.
	MaxStates int
	// MaxMergeBudget bounds the ordered-merge buffer a parallel
	// enumeration may request. 0 = unlimited.
	MaxMergeBudget int
	// MaxSampleBatch bounds k in batched sampling calls. 0 = unlimited.
	MaxSampleBatch int
	// MaxIndexBytes bounds the estimated arena footprint of a counting
	// index build (see EstimateIndexBytes). 0 = unlimited.
	MaxIndexBytes int64
}

// CheckLength admits a single-length request of word length n.
func (l *Limits) CheckLength(n int) error {
	if l == nil || l.MaxLength <= 0 || n <= l.MaxLength {
		return nil
	}
	return fmt.Errorf("%w: length %d exceeds limit %d", ErrRejected, n, l.MaxLength)
}

// CheckRange admits a range request over lengths [lo, hi]: the span is
// bounded by MaxRangeSpan and hi by MaxLength.
func (l *Limits) CheckRange(lo, hi int) error {
	if l == nil {
		return nil
	}
	if err := l.CheckLength(hi); err != nil {
		return err
	}
	if span := hi - lo + 1; l.MaxRangeSpan > 0 && span > l.MaxRangeSpan {
		return fmt.Errorf("%w: range span %d (lengths %d..%d) exceeds limit %d",
			ErrRejected, span, lo, hi, l.MaxRangeSpan)
	}
	return nil
}

// CheckStates admits an automaton of the given state count.
func (l *Limits) CheckStates(states int) error {
	if l == nil || l.MaxStates <= 0 || states <= l.MaxStates {
		return nil
	}
	return fmt.Errorf("%w: %d states exceeds limit %d", ErrRejected, states, l.MaxStates)
}

// CheckMergeBudget admits an ordered-merge buffer request.
func (l *Limits) CheckMergeBudget(budget int) error {
	if l == nil || l.MaxMergeBudget <= 0 || budget <= l.MaxMergeBudget {
		return nil
	}
	return fmt.Errorf("%w: merge budget %d exceeds limit %d", ErrRejected, budget, l.MaxMergeBudget)
}

// CheckSampleBatch admits a batched-sampling request of k draws.
func (l *Limits) CheckSampleBatch(k int) error {
	if l == nil || l.MaxSampleBatch <= 0 || k <= l.MaxSampleBatch {
		return nil
	}
	return fmt.Errorf("%w: sample batch %d exceeds limit %d", ErrRejected, k, l.MaxSampleBatch)
}

// CheckIndexBytes admits a counting-index build of the given estimated
// footprint (callers compute it with EstimateIndexBytes).
func (l *Limits) CheckIndexBytes(bytes int64) error {
	if l == nil || l.MaxIndexBytes <= 0 || bytes <= l.MaxIndexBytes {
		return nil
	}
	return fmt.Errorf("%w: estimated index footprint %d bytes exceeds limit %d",
		ErrRejected, bytes, l.MaxIndexBytes)
}

// EstimateIndexBytes upper-bounds the one-limb arena footprint of a
// counting index over an automaton with the given state and transition
// counts, swept over length+1 layers: per layer, one uint64 per state
// (subtree counts) plus one per transition (edge prefix sums) plus one
// sentinel. It is deliberately the narrowest width's estimate — an index
// whose counts pass 2^64 needs k limbs per count and costs about k times
// as much, but admission only needs a monotone proxy that is computable
// before any allocation.
func EstimateIndexBytes(states, transitions, length int) int64 {
	if states < 0 || transitions < 0 || length < 0 {
		return 0
	}
	return 8 * (int64(states) + int64(transitions) + 1) * (int64(length) + 1)
}

// limitKeys maps the Parse/String wire keys to field accessors, in the
// canonical serialization order.
var limitKeys = []struct {
	key string
	get func(*Limits) int64
	set func(*Limits, int64)
}{
	{"length", func(l *Limits) int64 { return int64(l.MaxLength) }, func(l *Limits, v int64) { l.MaxLength = int(v) }},
	{"span", func(l *Limits) int64 { return int64(l.MaxRangeSpan) }, func(l *Limits, v int64) { l.MaxRangeSpan = int(v) }},
	{"states", func(l *Limits) int64 { return int64(l.MaxStates) }, func(l *Limits, v int64) { l.MaxStates = int(v) }},
	{"budget", func(l *Limits) int64 { return int64(l.MaxMergeBudget) }, func(l *Limits, v int64) { l.MaxMergeBudget = int(v) }},
	{"batch", func(l *Limits) int64 { return int64(l.MaxSampleBatch) }, func(l *Limits, v int64) { l.MaxSampleBatch = int(v) }},
	{"bytes", func(l *Limits) int64 { return l.MaxIndexBytes }, func(l *Limits, v int64) { l.MaxIndexBytes = v }},
}

// Parse builds a Limits from a comma-separated key=value spec, e.g.
// "length=64,span=16,states=4096,budget=4096,batch=100000,bytes=1000000".
// Keys: length, span, states, budget, batch, bytes. Values must be
// non-negative integers (0 = unlimited); unknown or repeated keys and
// malformed values are errors. The empty string parses to nil (no
// policy).
func Parse(s string) (*Limits, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	l := &Limits{}
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("admission: malformed limit %q (want key=value)", part)
		}
		key = strings.TrimSpace(key)
		idx := -1
		for i, k := range limitKeys {
			if k.key == key {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("admission: unknown limit key %q", key)
		}
		if seen[key] {
			return nil, fmt.Errorf("admission: repeated limit key %q", key)
		}
		seen[key] = true
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("admission: bad value %q for limit %q (want a non-negative integer)", val, key)
		}
		const maxInt = int64(^uint(0) >> 1)
		if key != "bytes" && n > maxInt {
			return nil, fmt.Errorf("admission: value %q for limit %q overflows int", val, key)
		}
		limitKeys[idx].set(l, n)
	}
	if len(seen) == 0 {
		return nil, fmt.Errorf("admission: empty limit spec %q", s)
	}
	return l, nil
}

// String serializes the policy in Parse's format, omitting unlimited
// dimensions; Parse(l.String()) round-trips any policy with at least one
// set field. A nil or all-zero policy prints as "".
func (l *Limits) String() string {
	if l == nil {
		return ""
	}
	var b strings.Builder
	for _, k := range limitKeys {
		v := k.get(l)
		if v <= 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", k.key, v)
	}
	return b.String()
}
