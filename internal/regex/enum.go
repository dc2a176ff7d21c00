package regex

import (
	"math/big"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/enumerate"
)

// Words opens an enumeration session over the length-n words matching the
// pattern, routed through the core engine's class dispatch: when the
// Glushkov automaton is unambiguous the session has constant delay
// (Algorithm 1), otherwise polynomial delay (flashlight). Every session is
// resumable via Token — compile the same pattern over the same alphabet
// and pass the token back through opts.Cursor (parallel sessions mint
// multi-cell frontier tokens that also resume with any worker count);
// parallel sessions (opts.Workers > 1) shard the language by prefix under
// the work-stealing scheduler, tunable through opts.MergeBudget and
// opts.StealThreshold. opts.Ctx cancels the session cooperatively at
// delivery-batch boundaries; Token still mints a valid resume point.
func Words(pattern string, alpha *automata.Alphabet, n int, opts core.CursorOptions) (enumerate.Session, error) {
	return WordsWithOptions(pattern, alpha, n, core.Options{}, opts)
}

// WordsWithOptions is Words with explicit engine options — the entry
// point for callers that need admission control (copts.Limits rejects
// over-limit patterns and lengths before any length-sized
// precomputation, wrapping admission.ErrRejected) or tuned
// workers/seeds on the one-shot compile-and-enumerate path.
func WordsWithOptions(pattern string, alpha *automata.Alphabet, n int, copts core.Options, opts core.CursorOptions) (enumerate.Session, error) {
	nfa, err := Compile(pattern, alpha)
	if err != nil {
		return nil, err
	}
	inst, err := core.New(nfa, n, copts)
	if err != nil {
		return nil, err
	}
	return inst.Enumerate(opts)
}

// WordsRange opens an enumeration session over ALL matches whose length
// lies in [lo, hi], emitted shortest first (length-lexicographic order)
// through core's cross-length session chain — the "matches up to length
// N" workload served from one resumable session (el1:R: tokens; parallel
// per length when opts.Workers > 1). Both classes enumerate; ranked
// options (opts.SeekRank as a global rank) need an unambiguous Glushkov
// automaton.
func WordsRange(pattern string, alpha *automata.Alphabet, lo, hi int, opts core.CursorOptions) (enumerate.Session, error) {
	return WordsRangeWithOptions(pattern, alpha, lo, hi, core.Options{}, opts)
}

// WordsRangeWithOptions is WordsRange with explicit engine options — see
// WordsWithOptions (admission via copts.Limits, cancellation via
// opts.Ctx at both delivery-batch and length-advance boundaries).
func WordsRangeWithOptions(pattern string, alpha *automata.Alphabet, lo, hi int, copts core.Options, opts core.CursorOptions) (enumerate.Session, error) {
	nfa, err := Compile(pattern, alpha)
	if err != nil {
		return nil, err
	}
	inst, err := core.New(nfa, hi, copts)
	if err != nil {
		return nil, err
	}
	return inst.EnumerateRange(lo, hi, opts)
}

// WordAtRange returns the match at the given global 0-based rank of the
// length-lexicographic order over [lo, hi] — random access into the
// union of all match lengths through the shared cross-length index.
// Unambiguous patterns only (core.UnrankRange's contract).
func WordAtRange(pattern string, alpha *automata.Alphabet, lo, hi int, rank *big.Int) (automata.Word, error) {
	nfa, err := Compile(pattern, alpha)
	if err != nil {
		return nil, err
	}
	inst, err := core.New(nfa, hi, core.Options{})
	if err != nil {
		return nil, err
	}
	return inst.UnrankRange(lo, hi, rank)
}
