package spanner

import (
	"context"
	"math/big"

	"repro/internal/core"
	"repro/internal/enumerate"
)

// MappingSession streams the mappings of ⟦A⟧(d) through the core
// enumeration engine, decoding each witness on the fly. It inherits the
// engine's contract: every session is resumable via Token (serial cursors
// or multi-cell frontier tokens), and parallel sessions
// (CursorOptions.Workers > 1) shard by encoding prefix under the
// work-stealing scheduler, tunable through CursorOptions.MergeBudget and
// CursorOptions.StealThreshold. Cancellation and admission pass through
// unchanged: CursorOptions.Ctx cancels the underlying session at its
// delivery-batch boundaries (Token still mints a valid resume point —
// cancel is a checkpoint), and core.Options.Limits on the core instance
// rejects over-limit requests before any length-sized precomputation.
type MappingSession struct {
	inst *Instance
	s    enumerate.Session
	err  error
}

// Enumerate opens a mapping enumeration session on a core instance built
// from this spanner instance (core.New(inst.N, inst.Length, …)). The
// class dispatch is the paper's: constant delay when the encoding
// automaton is unambiguous (Corollary 7), polynomial delay otherwise.
func (inst *Instance) Enumerate(ci *core.Instance, opts core.CursorOptions) (*MappingSession, error) {
	s, err := ci.Enumerate(opts)
	if err != nil {
		return nil, err
	}
	return &MappingSession{inst: inst, s: s}, nil
}

// EnumerateRange opens a mapping enumeration session over all encoding
// lengths n in [lo, hi] through core's cross-length session chain
// (resumable via el1:R: range tokens, parallel per length under the
// work-stealing scheduler). For a fixed document exactly one encoding
// length is populated, so the range form's value here is serving many
// instance configurations through one uniform session shape; decoding
// still requires each witness to be a valid ref-word encoding.
func (inst *Instance) EnumerateRange(ci *core.Instance, lo, hi int, opts core.CursorOptions) (*MappingSession, error) {
	s, err := ci.EnumerateRange(lo, hi, opts)
	if err != nil {
		return nil, err
	}
	return &MappingSession{inst: inst, s: s}, nil
}

// MappingAtRange returns the mapping at the given global 0-based rank of
// the length-lexicographic order over [lo, hi] (core.UnrankRange on the
// encoding), through the shared cross-length index. Unambiguous
// encodings only.
func (inst *Instance) MappingAtRange(ci *core.Instance, lo, hi int, r *big.Int) (Mapping, error) {
	w, err := ci.UnrankRange(lo, hi, r)
	if err != nil {
		return nil, err
	}
	return inst.DecodeMapping(w)
}

// SampleRangeMappings draws k uniform mappings from the union of
// encoding lengths in [lo, hi] (bitwise identical for every worker
// count). Unambiguous encodings only; core.ErrEmpty when the union is
// empty.
func (inst *Instance) SampleRangeMappings(ci *core.Instance, lo, hi, k, workers int) ([]Mapping, error) {
	return inst.SampleRangeMappingsCtx(nil, ci, lo, hi, k, workers)
}

// SampleRangeMappingsCtx is SampleRangeMappings with cooperative
// cancellation: ctx is checked at index-build layers and sample-chunk
// boundaries (core.SampleManyRangeCtx's contract); a nil ctx never
// cancels and the batch contents are identical.
func (inst *Instance) SampleRangeMappingsCtx(ctx context.Context, ci *core.Instance, lo, hi, k, workers int) ([]Mapping, error) {
	ws, err := ci.SampleManyRangeCtx(ctx, lo, hi, k, workers)
	if err != nil {
		return nil, err
	}
	out := make([]Mapping, len(ws))
	for i, w := range ws {
		mp, err := inst.DecodeMapping(w)
		if err != nil {
			return nil, err
		}
		out[i] = mp
	}
	return out, nil
}

// Next returns the next mapping, or ok=false when the session is exhausted
// or failed (check Err). The mapping is freshly allocated and stays valid.
func (ms *MappingSession) Next() (Mapping, bool) {
	if ms.err != nil {
		return nil, false
	}
	w, ok := ms.s.Next()
	if !ok {
		ms.err = ms.s.Err()
		return nil, false
	}
	mp, err := ms.inst.DecodeMapping(w)
	if err != nil {
		ms.err = err
		return nil, false
	}
	return mp, true
}

// Token returns the resume token of the underlying session: a serial
// cursor or, for parallel sessions, a multi-cell frontier token.
func (ms *MappingSession) Token() (string, bool) { return ms.s.Token() }

// Stats exposes the work-stealing scheduler's statistics of a parallel
// session (ok=false for serial sessions).
func (ms *MappingSession) Stats() (enumerate.StreamStats, bool) {
	return enumerate.SessionStats(ms.s)
}

// Err reports a decode failure or an underlying session failure.
func (ms *MappingSession) Err() error { return ms.err }

// Close releases the underlying session.
func (ms *MappingSession) Close() { ms.s.Close() }
