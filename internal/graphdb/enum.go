package graphdb

import (
	"context"
	"math/big"

	"repro/internal/core"
	"repro/internal/enumerate"
)

// PathSession streams the paths of ⟦Q⟧_n(G, u, v) through the core
// enumeration engine, decoding each product witness into the graph path it
// encodes. Every session is resumable via Token (serial cursors or
// multi-cell frontier tokens); parallel sessions (CursorOptions.Workers >
// 1) shard by edge-sequence prefix under the work-stealing scheduler,
// tunable through CursorOptions.MergeBudget and
// CursorOptions.StealThreshold. Cancellation and admission pass through
// unchanged: CursorOptions.Ctx cancels the underlying session at its
// delivery-batch boundaries (Token still mints a valid resume point),
// and core.Options.Limits on the core instance rejects over-limit
// requests before any length-sized precomputation.
type PathSession struct {
	p *Product
	s enumerate.Session
}

// Enumerate opens a path enumeration session on a core instance built from
// this product (core.New(p.N, n, …)): the EVAL-RPQ side of Corollary 8.
func (p *Product) Enumerate(ci *core.Instance, opts core.CursorOptions) (*PathSession, error) {
	s, err := ci.Enumerate(opts)
	if err != nil {
		return nil, err
	}
	return &PathSession{p: p, s: s}, nil
}

// EnumerateRange opens a path enumeration session over ALL path lengths
// n in [lo, hi] — shortest paths first, each length in its engine order —
// through core's cross-length session chain (resumable via el1:R: range
// tokens, parallel per length under the work-stealing scheduler). This is
// the natural "paths up to length N" RPQ workload served from one
// session.
func (p *Product) EnumerateRange(ci *core.Instance, lo, hi int, opts core.CursorOptions) (*PathSession, error) {
	s, err := ci.EnumerateRange(lo, hi, opts)
	if err != nil {
		return nil, err
	}
	return &PathSession{p: p, s: s}, nil
}

// PathAtRange returns the path at the given global 0-based rank of the
// length-lexicographic order over [lo, hi] — random access into the
// union of all path lengths through the shared cross-length index.
// Unambiguous products only (core.UnrankRange's contract).
func (p *Product) PathAtRange(ci *core.Instance, lo, hi int, r *big.Int) (Path, error) {
	w, err := ci.UnrankRange(lo, hi, r)
	if err != nil {
		return nil, err
	}
	return p.WordToPath(w), nil
}

// SampleRangePaths draws k uniform paths from the union of all lengths
// in [lo, hi] (each length weighted by its exact path count; bitwise
// identical for every worker count). Unambiguous products only;
// core.ErrEmpty when no path of any in-range length exists.
func (p *Product) SampleRangePaths(ci *core.Instance, lo, hi, k, workers int) ([]Path, error) {
	return p.SampleRangePathsCtx(nil, ci, lo, hi, k, workers)
}

// SampleRangePathsCtx is SampleRangePaths with cooperative cancellation:
// ctx is checked at index-build layers and sample-chunk boundaries
// (core.SampleManyRangeCtx's contract); a nil ctx never cancels and the
// batch contents are identical.
func (p *Product) SampleRangePathsCtx(ctx context.Context, ci *core.Instance, lo, hi, k, workers int) ([]Path, error) {
	ws, err := ci.SampleManyRangeCtx(ctx, lo, hi, k, workers)
	if err != nil {
		return nil, err
	}
	out := make([]Path, len(ws))
	for i, w := range ws {
		out[i] = p.WordToPath(w)
	}
	return out, nil
}

// Next returns the next path, or ok=false when the session is exhausted or
// failed (check Err). The path is freshly allocated (WordToPath copies),
// so it stays valid across calls.
func (ps *PathSession) Next() (Path, bool) {
	w, ok := ps.s.Next()
	if !ok {
		return nil, false
	}
	return ps.p.WordToPath(w), true
}

// Token returns the resume token of the underlying session: a serial
// cursor or, for parallel sessions, a multi-cell frontier token.
func (ps *PathSession) Token() (string, bool) { return ps.s.Token() }

// Stats exposes the work-stealing scheduler's statistics of a parallel
// session (ok=false for serial sessions).
func (ps *PathSession) Stats() (enumerate.StreamStats, bool) {
	return enumerate.SessionStats(ps.s)
}

// Err reports an underlying session failure.
func (ps *PathSession) Err() error { return ps.s.Err() }

// Close releases the underlying session.
func (ps *PathSession) Close() { ps.s.Close() }
