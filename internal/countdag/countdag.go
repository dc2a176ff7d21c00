// Package countdag keeps the names of the former single-length counting
// index. The index is lengthrange.RangeIndex, and a single witness length
// n is the range [n, n]: its per-length answers are the ones this
// package's own DAG sweep used to compute, bit for bit. The serving
// benchmark (perfbench, a separate module) still compiles against the two
// names below; they go when the benchmark next changes.
//
// Deprecated: use internal/lengthrange.
package countdag

import (
	"context"

	"repro/internal/lengthrange"
	"repro/internal/unroll"
)

// Index is the counting index.
//
// Deprecated: use lengthrange.RangeIndex. It is an alias, so an Index
// answers every RangeIndex method (Rank and Unrank forward to RankRange
// and UnrankRange).
type Index = lengthrange.RangeIndex

// BuildCtx builds the index over the single length [d.N, d.N] of d's
// source automaton; the unrolled DAG itself is not read.
//
// Deprecated: use lengthrange.BuildCtx(ctx, nfa, n, n, workers), which
// needs no unrolled DAG.
func BuildCtx(ctx context.Context, d *unroll.DAG, workers int) (*Index, error) {
	return lengthrange.BuildCtx(ctx, d.Src, d.N, d.N, workers)
}
