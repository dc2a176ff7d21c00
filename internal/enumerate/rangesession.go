package enumerate

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"strings"

	"repro/internal/automata"
	"repro/internal/faultinject"
)

// KindRange is the cursor kind byte of a cross-length range session
// token. The wire format extends the el1: namespace of the cursors:
//
//	el1:R:<base64url payload>
//
// with payload uvarint(fingerprint) ∘ uvarint(lo) ∘ uvarint(hi) ∘
// uvarint(cur) ∘ state byte ∘ inner token bytes. The fingerprint is
// Fingerprint of the automaton (NOT length-bound — the
// envelope spans lengths; each embedded inner token still carries its
// own length-bound fingerprint). cur is the length the session is
// positioned in; the state byte is 'd' (the whole range is drained, no
// inner token) or 'm' (mid-range: the rest of the payload is the inner
// session's own resume token at length cur, verbatim — a serial cursor,
// a rank cursor or a multi-cell frontier token, each resuming under its
// own validation discipline). Parse-time validation bounds every claimed
// count by the remaining payload and the range invariants lo ≤ cur ≤ hi,
// and resume paths check the envelope fingerprint and the inner token's
// embedded length against cur BEFORE any length-sized precomputation —
// the same fingerprint-first discipline the other el1: tokens follow (a
// checksum, not a MAC: callers resuming fully untrusted tokens should
// bound lo/hi against their own configuration, as core does by requiring
// the envelope range to equal the requested one).
const KindRange byte = 'R'

// RangeCursor is a decoded cross-length session position.
type RangeCursor struct {
	// FP is Fingerprint of the automaton the session ran on.
	FP uint32
	// Lo, Hi delimit the session's length range; Cur is the length the
	// session is positioned in (Hi for a done session).
	Lo, Hi, Cur int
	// Done marks a fully drained range; Inner is empty iff Done.
	Done bool
	// Inner is the resume token of the in-flight per-length session.
	Inner string
}

// Token serializes the cursor; see KindRange for the format.
func (c RangeCursor) Token() string {
	buf := make([]byte, 0, 16+len(c.Inner))
	buf = binary.AppendUvarint(buf, uint64(c.FP))
	buf = binary.AppendUvarint(buf, uint64(c.Lo))
	buf = binary.AppendUvarint(buf, uint64(c.Hi))
	buf = binary.AppendUvarint(buf, uint64(c.Cur))
	if c.Done {
		buf = append(buf, byte(CursorDone))
	} else {
		buf = append(buf, byte(CursorMid))
		buf = append(buf, c.Inner...)
	}
	return tokenPrefix + ":" + string(KindRange) + ":" + base64.RawURLEncoding.EncodeToString(buf)
}

// IsRangeToken reports whether the token claims the range kind, so
// callers can route it here instead of ParseToken.
func IsRangeToken(token string) bool {
	return strings.HasPrefix(token, tokenPrefix+":"+string(KindRange)+":")
}

// ParseRangeToken decodes a range session token, validating everything
// that can be checked without the automaton: format, the lo ≤ cur ≤ hi
// invariants, state byte, and the presence shape of the inner token. The
// inner token itself is validated when the per-length session reopens
// (fingerprint before precomputation).
func ParseRangeToken(token string) (RangeCursor, error) {
	var c RangeCursor
	parts := strings.Split(token, ":")
	if len(parts) != 3 || parts[0] != tokenPrefix || parts[1] != string(KindRange) {
		return c, fmt.Errorf("enumerate: malformed range token (want %s:%c:<payload>)", tokenPrefix, KindRange)
	}
	raw, err := base64.RawURLEncoding.DecodeString(parts[2])
	if err != nil {
		return c, fmt.Errorf("enumerate: bad range token payload: %v", err)
	}
	fp, k := binary.Uvarint(raw)
	if k <= 0 || fp > math.MaxUint32 {
		return c, fmt.Errorf("enumerate: bad range token fingerprint")
	}
	raw = raw[k:]
	c.FP = uint32(fp)
	uv := func(what string) (int, error) {
		v, k := binary.Uvarint(raw)
		if k <= 0 || v > math.MaxInt32 {
			return 0, fmt.Errorf("enumerate: bad range token %s", what)
		}
		raw = raw[k:]
		return int(v), nil
	}
	if c.Lo, err = uv("lower length"); err != nil {
		return c, err
	}
	if c.Hi, err = uv("upper length"); err != nil {
		return c, err
	}
	if c.Cur, err = uv("current length"); err != nil {
		return c, err
	}
	if c.Lo > c.Hi || c.Cur < c.Lo || c.Cur > c.Hi {
		return c, fmt.Errorf("enumerate: inconsistent range token bounds lo=%d cur=%d hi=%d", c.Lo, c.Cur, c.Hi)
	}
	if len(raw) == 0 {
		return c, fmt.Errorf("enumerate: truncated range token (missing state)")
	}
	state := raw[0]
	raw = raw[1:]
	switch state {
	case byte(CursorDone):
		c.Done = true
		if len(raw) != 0 {
			return c, fmt.Errorf("enumerate: trailing bytes after done-state range token")
		}
	case byte(CursorMid):
		if len(raw) == 0 {
			return c, fmt.Errorf("enumerate: mid-state range token carries no inner token")
		}
		c.Inner = string(raw)
	default:
		return c, fmt.Errorf("enumerate: unknown range token state %q", state)
	}
	return c, nil
}

// SessionFactory opens one per-length enumeration session for a
// RangeSession: a fresh session at `length` when cursor is empty and
// seek is nil, a resumed one when cursor carries a token (whose embedded
// length the factory must validate against `length` before any
// length-sized precomputation — core.Instance wires this to its own
// session opener, which already enforces exactly that), or a session
// positioned at the 0-based within-length rank when seek is non-nil.
type SessionFactory func(length int, cursor string, seek *big.Int) (Session, error)

// RangeSession enumerates the union of L_n for n in [lo, hi] in
// length-lexicographic order — all length-lo words in their engine
// order, then lo+1, and so on — by chaining per-length sessions from a
// SessionFactory; each per-length session carries the full engine
// contract (work-stealing parallel streams included), so a parallel
// range session reuses the steal scheduler within every length. It
// implements Session: Token serializes the position as an
// el1:R: envelope around the in-flight per-length token, and resuming
// (ResumeRangeSession) continues bitwise where the session stopped. A
// RangeSession is for one goroutine.
type RangeSession struct {
	lo, hi int
	fp     uint32
	open   SessionFactory
	cur    int
	s      Session
	err    error
	done   bool
	// closedTok preserves the session's position across Close: every
	// other Session implementation still answers Token after Close (a
	// serial enumerator's Close is a no-op; a Stream serializes its real
	// frontier), so the range envelope must not degrade to a done token
	// just because the inner session was released.
	closedTok string
	closedOK  bool
	closed    bool
	// ctx, when set (SetContext), is checked at every length-advance
	// boundary — the lengthrange.session.advance faultinject site — so a
	// cancelled range chain stops before opening the next length's
	// session. failTok preserves the resume point captured at failure
	// time: cancel ⇒ checkpoint, not a lost range.
	ctx     context.Context
	failTok string
	failOK  bool
}

// NewRangeSession opens a fresh session over [lo, hi] starting at the
// first length-lo word. fp is Fingerprint of the automaton
// (embedded in resume tokens).
func NewRangeSession(lo, hi int, fp uint32, open SessionFactory) (*RangeSession, error) {
	return NewRangeSessionAt(lo, hi, lo, nil, fp, open)
}

// NewRangeSessionAt opens a session over [lo, hi] positioned at length
// `start` (skipping all shorter lengths); when seek is non-nil the
// per-length session additionally starts at that 0-based rank within the
// start length — together the two place the session at any global rank.
func NewRangeSessionAt(lo, hi, start int, seek *big.Int, fp uint32, open SessionFactory) (*RangeSession, error) {
	if lo < 0 || lo > hi {
		return nil, fmt.Errorf("enumerate: bad length range [%d, %d]", lo, hi)
	}
	if start < lo || start > hi {
		return nil, fmt.Errorf("enumerate: start length %d outside [%d, %d]", start, lo, hi)
	}
	s, err := open(start, "", seek)
	if err != nil {
		return nil, err
	}
	return &RangeSession{lo: lo, hi: hi, fp: fp, open: open, cur: start, s: s}, nil
}

// ExhaustedRangeSession returns a drained session over [lo, hi] — the
// resume target of a done-state token, and the session a seek to
// TotalRange opens.
func ExhaustedRangeSession(lo, hi int, fp uint32) *RangeSession {
	return &RangeSession{lo: lo, hi: hi, fp: fp, cur: hi, done: true}
}

// ResumeRangeSession reopens a session from a parsed range cursor. The
// envelope fingerprint must match fp (checked before the factory runs,
// so a cross-automaton token buys no precomputation); bounding the
// cursor's lo/hi against an expected range is the caller's job — core
// requires them to equal the requested range.
func ResumeRangeSession(c RangeCursor, fp uint32, open SessionFactory) (*RangeSession, error) {
	if c.FP != fp {
		return nil, fmt.Errorf("enumerate: range token fingerprint %08x does not match automaton (%08x)", c.FP, fp)
	}
	if c.Done {
		return ExhaustedRangeSession(c.Lo, c.Hi, fp), nil
	}
	s, err := open(c.Cur, c.Inner, nil)
	if err != nil {
		return nil, err
	}
	return &RangeSession{lo: c.Lo, hi: c.Hi, fp: fp, open: open, cur: c.Cur, s: s}, nil
}

// Next implements Session: it drains the current length's
// session and advances to the next length until the range is exhausted.
func (rs *RangeSession) Next() (automata.Word, bool) {
	for !rs.done {
		if w, ok := rs.s.Next(); ok {
			return w, true
		}
		if err := rs.s.Err(); err != nil {
			rs.fail(err)
			break
		}
		if err := faultinject.Check(rs.ctx, faultinject.SiteRangeAdvance); err != nil {
			rs.fail(err)
			break
		}
		rs.s.Close()
		rs.cur++
		if rs.cur > rs.hi {
			// Keep the (closed) last inner session: Unwrap still reaches
			// its scheduler stats after the drain.
			rs.done = true
			break
		}
		s, err := rs.open(rs.cur, "", nil)
		if err != nil {
			rs.err = err
			rs.done = true
			break
		}
		rs.s = s
	}
	return nil, false
}

// fail records err while preserving the session's position: the resume
// token is captured at failure time, while the inner session still
// answers Token (a cancelled stream serializes its real undelivered
// frontier; a cleanly drained length serializes as done, so resume
// advances past it). Cancel ⇒ checkpoint: resuming the captured token
// continues bitwise where the failure cut off, skipping nothing.
func (rs *RangeSession) fail(err error) {
	rs.err = err
	rs.failTok, rs.failOK = rs.token()
	rs.s.Close()
	rs.done = true
}

// SetContext arms the session's length-advance checkpoint: a non-nil ctx
// is checked (with the faultinject lengthrange.session.advance site)
// before each next per-length session opens. Call before the first Next;
// the per-length sessions the factory opens carry their own ctx.
func (rs *RangeSession) SetContext(ctx context.Context) { rs.ctx = ctx }

// Token implements Session: the el1:R: envelope around the
// current per-length session's own resume token. A session that ended in
// an error answers the checkpoint captured at failure time when one
// exists (cancellation and injected faults leave a resumable frontier)
// and ok=false otherwise — a fabricated done-state token would claim the
// range was fully drained, and resuming it would silently skip the
// lengths the failure cut off.
func (rs *RangeSession) Token() (string, bool) {
	if rs.err != nil {
		return rs.failTok, rs.failOK
	}
	if rs.closed {
		return rs.closedTok, rs.closedOK
	}
	return rs.token()
}

// token serializes the live position (the pre-Close path).
func (rs *RangeSession) token() (string, bool) {
	if rs.done || rs.s == nil {
		return RangeCursor{FP: rs.fp, Lo: rs.lo, Hi: rs.hi, Cur: rs.hi, Done: true}.Token(), true
	}
	inner, ok := rs.s.Token()
	if !ok {
		return "", false
	}
	return RangeCursor{FP: rs.fp, Lo: rs.lo, Hi: rs.hi, Cur: rs.cur, Inner: inner}.Token(), true
}

// Err implements Session.
func (rs *RangeSession) Err() error { return rs.err }

// Close implements Session, closing the in-flight per-length
// session. The session's position token is captured first, so Token
// keeps answering the true resume point after Close. Safe to call more
// than once.
func (rs *RangeSession) Close() {
	if rs.closed {
		return
	}
	if rs.err == nil {
		rs.closedTok, rs.closedOK = rs.token()
	}
	rs.closed = true
	if rs.s != nil {
		// Closed but retained: a Stream's Stats stay readable after
		// Close, and Unwrap must keep reaching them.
		rs.s.Close()
	}
	rs.done = true
}

// Unwrap exposes the most recent per-length session — kept across
// length advances, drain and Close — so SessionStats can
// reach the scheduler statistics of a parallel range stream (those of
// the last length's stream; earlier lengths' streams are released as
// the chain advances).
func (rs *RangeSession) Unwrap() Session { return rs.s }

// Length returns the witness length the session is currently positioned
// in (the length of the next word, unless the session is exhausted).
func (rs *RangeSession) Length() int { return rs.cur }
