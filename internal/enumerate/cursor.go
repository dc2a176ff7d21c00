package enumerate

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"strings"

	"repro/internal/automata"
)

// Cursor kinds: which algorithm's position the cursor encodes.
const (
	// KindUFA marks an Algorithm 1 cursor (position = decision indices).
	KindUFA byte = 'u'
	// KindNFA marks a flashlight cursor (position = last emitted word).
	KindNFA byte = 'n'
	// KindUFARank marks a rank cursor for Algorithm 1 sessions: the
	// position is a single big integer — the number of words already
	// emitted, equivalently the rank of the next word in enumeration
	// order. Resuming seeks through the counting index in O(n·log Δ)
	// instead of replaying a decision vector (see SeekRank).
	KindUFARank byte = 'r'
	// KindFrontier marks a multi-cell frontier token: the position of a
	// parallel (or chained) session, an ordered list of remaining cells
	// with one optional mid-cell position each. See Frontier.
	KindFrontier byte = 'p'
)

// CursorState distinguishes the three positions a cursor can denote.
type CursorState byte

const (
	// CursorFresh: nothing emitted yet; resuming starts from the top.
	CursorFresh CursorState = 'f'
	// CursorMid: Pos records the position after the last emitted word.
	CursorMid CursorState = 'm'
	// CursorDone: the range is exhausted; resuming yields nothing.
	CursorDone CursorState = 'd'
)

// Cursor is a decoded enumeration position: the logspace-sized resume point
// the self-reducible structure of §5.2 guarantees. See the package comment
// for the token format.
type Cursor struct {
	Kind   byte
	Length int
	State  CursorState
	// Pos is the position payload for CursorMid: per-layer decision
	// indices (KindUFA) or the symbols of the last emitted word (KindNFA),
	// always exactly Length ints.
	Pos []int
	// Rank is the position payload of a KindUFARank cursor: the number of
	// words already emitted (0 = fresh, |L_n| = done). Nil for the other
	// kinds.
	Rank *big.Int
	// FP is the Fingerprint of the automaton the cursor was minted on.
	FP uint32
}

// tokenPrefix versions the wire format; bump it on incompatible changes.
const tokenPrefix = "el1"

// Token serializes the cursor to a compact printable resume token. A rank
// cursor (KindUFARank) carries its big integer as uvarint(len) ∘ bytes in
// place of the position ints.
func (c Cursor) Token() string {
	buf := make([]byte, 0, 8+2*len(c.Pos))
	buf = binary.AppendUvarint(buf, uint64(c.FP))
	buf = binary.AppendUvarint(buf, uint64(c.Length))
	buf = append(buf, byte(c.State))
	if c.Kind == KindUFARank {
		var rb []byte
		if c.Rank != nil {
			rb = c.Rank.Bytes()
		}
		buf = binary.AppendUvarint(buf, uint64(len(rb)))
		buf = append(buf, rb...)
	} else if c.State == CursorMid {
		for _, v := range c.Pos {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	return tokenPrefix + ":" + string(c.Kind) + ":" + base64.RawURLEncoding.EncodeToString(buf)
}

// ParseToken decodes a resume token. It validates everything that can be
// checked without the automaton (format, kind, state, payload arity);
// automaton-dependent validation (fingerprint, decision ranges, prefix
// viability) happens in NewUFAFrom/NewNFAFrom.
func ParseToken(token string) (Cursor, error) {
	var c Cursor
	parts := strings.Split(token, ":")
	if len(parts) != 3 || parts[0] != tokenPrefix {
		return c, fmt.Errorf("enumerate: malformed resume token (want %s:<kind>:<payload>)", tokenPrefix)
	}
	if len(parts[1]) == 1 && parts[1][0] == KindFrontier {
		return c, fmt.Errorf("enumerate: token is a multi-cell frontier (use ParseFrontier)")
	}
	if len(parts[1]) != 1 || (parts[1][0] != KindUFA && parts[1][0] != KindNFA && parts[1][0] != KindUFARank) {
		return c, fmt.Errorf("enumerate: unknown cursor kind %q", parts[1])
	}
	c.Kind = parts[1][0]
	raw, err := base64.RawURLEncoding.DecodeString(parts[2])
	if err != nil {
		return c, fmt.Errorf("enumerate: bad token payload: %v", err)
	}
	fp, k := binary.Uvarint(raw)
	if k <= 0 || fp > math.MaxUint32 {
		return c, fmt.Errorf("enumerate: bad token fingerprint")
	}
	raw = raw[k:]
	c.FP = uint32(fp)
	length, k := binary.Uvarint(raw)
	if k <= 0 || length > math.MaxInt32 {
		return c, fmt.Errorf("enumerate: bad token length")
	}
	raw = raw[k:]
	c.Length = int(length)
	if len(raw) == 0 {
		return c, fmt.Errorf("enumerate: truncated token (missing state)")
	}
	c.State = CursorState(raw[0])
	raw = raw[1:]
	if c.Kind == KindUFARank {
		if c.State != CursorMid {
			return c, fmt.Errorf("enumerate: rank token in state %q, want %q", byte(c.State), byte(CursorMid))
		}
		blen, k := binary.Uvarint(raw)
		if k <= 0 || blen > uint64(len(raw[k:])) {
			return c, fmt.Errorf("enumerate: rank token claims %d bytes but carries %d", blen, len(raw)-max(k, 0))
		}
		raw = raw[k:]
		c.Rank = new(big.Int).SetBytes(raw[:blen])
		if len(raw[blen:]) != 0 {
			return c, fmt.Errorf("enumerate: trailing bytes after rank")
		}
		return c, nil
	}
	switch c.State {
	case CursorFresh, CursorDone:
		if len(raw) != 0 {
			return c, fmt.Errorf("enumerate: trailing bytes after %c-state token", c.State)
		}
		return c, nil
	case CursorMid:
		// Each encoded position int costs at least one payload byte, so an
		// honest mid token can never claim more ints than bytes remain —
		// reject before sizing the allocation off untrusted input.
		if c.Length > len(raw) {
			return c, fmt.Errorf("enumerate: token claims %d positions but carries %d bytes", c.Length, len(raw))
		}
		c.Pos = make([]int, c.Length)
		for i := range c.Pos {
			v, k := binary.Uvarint(raw)
			if k <= 0 || v > math.MaxInt32 {
				return c, fmt.Errorf("enumerate: truncated token position (%d of %d ints)", i, c.Length)
			}
			raw = raw[k:]
			c.Pos[i] = int(v)
		}
		if len(raw) != 0 {
			return c, fmt.Errorf("enumerate: trailing bytes after token position")
		}
		return c, nil
	}
	return c, fmt.Errorf("enumerate: unknown cursor state %q", byte(c.State))
}

// Resume reopens an enumeration from a serialized token, dispatching on the
// cursor kind: a 'u' token yields a UFAEnumerator (decision replay), an
// 'r' token a UFAEnumerator seeked by rank through the counting index, an
// 'n' token an NFAEnumerator, and a 'p' (frontier) token a serial session
// that drains the remaining cells of a paused parallel stream one after
// another. The automaton must be the one the token was minted on
// (enforced via the embedded fingerprint, checked before any length-sized
// precomputation).
func Resume(n *automata.NFA, token string) (Session, error) {
	if !IsFrontierToken(token) {
		c, err := ParseToken(token)
		switch {
		case err != nil:
			return nil, err
		case c.Kind == KindNFA:
			return NewNFAFrom(n, c)
		}
		return NewUFAFrom(n, c)
	}
	f, err := ParseFrontier(token)
	if err != nil {
		return nil, err
	}
	if err := ValidateFrontier(n, f); err != nil {
		return nil, err
	}
	var t template
	if f.Kind == KindUFA {
		t, err = NewUFA(n, f.Length)
	} else {
		t, err = NewNFA(n, f.Length)
	}
	if err != nil {
		return nil, err
	}
	return resumeFrontier(t, f)
}

// FrontierSeg is one remaining cell of a Frontier: a prefix cell (with the
// SplitSteal lower bound Lo and, when the cell's upper range was stolen
// away, the lexicographic ceiling path Ceil) plus, when Pos is non-nil,
// the position of the last word already delivered inside the cell — the
// cell resumes just after it. A nil Pos means the whole cell is still
// pending; a nil/empty Ceil means the cell runs to the end of its prefix
// subtree.
type FrontierSeg struct {
	Prefix []int
	Lo     int
	Ceil   []int
	Pos    []int
}

// Frontier is the decoded position of a parallel enumeration session: the
// ordered list of cells not yet fully delivered. The concatenation of the
// segments' remaining ranges, in order, is exactly the undelivered part of
// the enumeration (for an ordered stream that is a suffix of the canonical
// order; for an unordered stream it is the complement of the delivered
// multiset). Kind is the algorithm's cursor kind (KindUFA or KindNFA), not
// KindFrontier.
type Frontier struct {
	Kind   byte
	Length int
	FP     uint32
	Segs   []FrontierSeg
}

// Token serializes the frontier as el1:p:<payload>. The payload is
// uvarint(fp) ∘ uvarint(length) ∘ kind byte ∘ uvarint(|segs|) followed by
// each segment as uvarint(|prefix|) ∘ prefix uvarints ∘ uvarint(lo) ∘
// uvarint(|ceil|) ∘ ceil uvarints ∘ state byte ('m' iff Pos is present) ∘
// Length position uvarints when mid.
func (f Frontier) Token() string {
	buf := make([]byte, 0, 16+8*len(f.Segs))
	buf = binary.AppendUvarint(buf, uint64(f.FP))
	buf = binary.AppendUvarint(buf, uint64(f.Length))
	buf = append(buf, f.Kind)
	buf = binary.AppendUvarint(buf, uint64(len(f.Segs)))
	for _, s := range f.Segs {
		buf = binary.AppendUvarint(buf, uint64(len(s.Prefix)))
		for _, v := range s.Prefix {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
		buf = binary.AppendUvarint(buf, uint64(s.Lo))
		buf = binary.AppendUvarint(buf, uint64(len(s.Ceil)))
		for _, v := range s.Ceil {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
		if s.Pos != nil {
			buf = append(buf, byte(CursorMid))
			for _, v := range s.Pos {
				buf = binary.AppendUvarint(buf, uint64(v))
			}
		} else {
			buf = append(buf, byte(CursorFresh))
		}
	}
	return tokenPrefix + ":" + string(KindFrontier) + ":" + base64.RawURLEncoding.EncodeToString(buf)
}

// IsFrontierToken reports whether the token claims the frontier kind, so
// callers can route it to ParseFrontier instead of ParseToken.
func IsFrontierToken(token string) bool {
	return strings.HasPrefix(token, tokenPrefix+":"+string(KindFrontier)+":")
}

// ParseFrontier decodes a frontier token, validating everything that can be
// checked without the automaton. As with ParseToken, claimed counts are
// bounded by the remaining payload bytes before any allocation is sized off
// untrusted input; automaton-dependent validation (fingerprint, prefix
// viability, decision ranges) happens when the cells are reopened.
func ParseFrontier(token string) (Frontier, error) {
	var f Frontier
	parts := strings.Split(token, ":")
	if len(parts) != 3 || parts[0] != tokenPrefix || parts[1] != string(KindFrontier) {
		return f, fmt.Errorf("enumerate: malformed frontier token (want %s:%c:<payload>)", tokenPrefix, KindFrontier)
	}
	raw, err := base64.RawURLEncoding.DecodeString(parts[2])
	if err != nil {
		return f, fmt.Errorf("enumerate: bad frontier payload: %v", err)
	}
	uv := func(what string) (int, error) {
		v, k := binary.Uvarint(raw)
		if k <= 0 || v > math.MaxInt32 {
			return 0, fmt.Errorf("enumerate: bad frontier %s", what)
		}
		raw = raw[k:]
		return int(v), nil
	}
	fp, k := binary.Uvarint(raw)
	if k <= 0 || fp > math.MaxUint32 {
		return f, fmt.Errorf("enumerate: bad frontier fingerprint")
	}
	raw = raw[k:]
	f.FP = uint32(fp)
	if f.Length, err = uv("length"); err != nil {
		return f, err
	}
	if len(raw) == 0 {
		return f, fmt.Errorf("enumerate: truncated frontier token (missing kind)")
	}
	f.Kind = raw[0]
	raw = raw[1:]
	if f.Kind != KindUFA && f.Kind != KindNFA {
		return f, fmt.Errorf("enumerate: unknown frontier cell kind %q", f.Kind)
	}
	nsegs, err := uv("segment count")
	if err != nil {
		return f, err
	}
	// Every segment costs at least two payload bytes (prefix length, lo,
	// state), so an honest token can never claim more segments than bytes.
	if nsegs > len(raw) {
		return f, fmt.Errorf("enumerate: frontier claims %d segments but carries %d bytes", nsegs, len(raw))
	}
	f.Segs = make([]FrontierSeg, 0, nsegs)
	for i := 0; i < nsegs; i++ {
		var s FrontierSeg
		plen, err := uv("prefix length")
		if err != nil {
			return f, err
		}
		if plen > f.Length {
			return f, fmt.Errorf("enumerate: frontier prefix length %d exceeds %d", plen, f.Length)
		}
		if plen > len(raw) {
			return f, fmt.Errorf("enumerate: frontier prefix claims %d ints but carries %d bytes", plen, len(raw))
		}
		s.Prefix = make([]int, plen)
		for j := range s.Prefix {
			if s.Prefix[j], err = uv("prefix int"); err != nil {
				return f, err
			}
		}
		if s.Lo, err = uv("lower bound"); err != nil {
			return f, err
		}
		clen, err := uv("ceiling length")
		if err != nil {
			return f, err
		}
		if clen > f.Length {
			return f, fmt.Errorf("enumerate: frontier ceiling length %d exceeds %d", clen, f.Length)
		}
		if clen > len(raw) {
			return f, fmt.Errorf("enumerate: frontier ceiling claims %d ints but carries %d bytes", clen, len(raw))
		}
		if clen > 0 {
			s.Ceil = make([]int, clen)
			for j := range s.Ceil {
				if s.Ceil[j], err = uv("ceiling int"); err != nil {
					return f, err
				}
			}
		}
		if len(raw) == 0 {
			return f, fmt.Errorf("enumerate: truncated frontier segment (missing state)")
		}
		state := CursorState(raw[0])
		raw = raw[1:]
		switch state {
		case CursorFresh:
		case CursorMid:
			if f.Length > len(raw) {
				return f, fmt.Errorf("enumerate: frontier position claims %d ints but carries %d bytes", f.Length, len(raw))
			}
			s.Pos = make([]int, f.Length)
			for j := range s.Pos {
				if s.Pos[j], err = uv("position int"); err != nil {
					return f, err
				}
			}
		default:
			return f, fmt.Errorf("enumerate: unknown frontier segment state %q", byte(state))
		}
		f.Segs = append(f.Segs, s)
	}
	if len(raw) != 0 {
		return f, fmt.Errorf("enumerate: trailing bytes after frontier segments")
	}
	return f, nil
}

// SuffixFrontier converts a serial mid-enumeration cursor into the
// equivalent frontier: the remaining words after the cursor's position are
// exactly, in canonical order, the alternatives after the taken decision at
// each depth, deepest first. This is how a serial resume token reopens as a
// parallel stream — the cells rebalance from there via work-stealing.
func SuffixFrontier(c Cursor) Frontier {
	f := Frontier{Kind: c.Kind, Length: c.Length, FP: c.FP}
	switch c.State {
	case CursorDone:
		return f
	case CursorFresh:
		f.Segs = []FrontierSeg{{}}
		return f
	}
	for d := c.Length - 1; d >= 0; d-- {
		f.Segs = append(f.Segs, FrontierSeg{
			Prefix: append([]int(nil), c.Pos[:d]...),
			Lo:     c.Pos[d] + 1,
		})
	}
	return f
}
