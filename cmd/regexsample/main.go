// Command regexsample counts, uniformly samples, and enumerates
// fixed-length strings matching a regular expression — the headline
// application of the paper's #NFA FPRAS: the Glushkov automaton of the
// pattern is ambiguous in general, yet its length-n language can be
// counted within (1±δ) and sampled uniformly in polynomial time
// (Theorems 2/22). When the pattern compiles to an unambiguous automaton
// the counting index additionally gives exact counting,
// without-replacement sampling (-distinct), ranked random access (-at),
// and resumable ordered enumeration (-enum, paginated with -limit and
// el1: -cursor tokens).
//
// SIGINT/SIGTERM interrupt cooperatively: an interrupted enumeration
// prints `# interrupted … resume with -cursor <token>` on stderr and
// exits 130 — the token resumes bitwise where the signal landed.
//
// Usage:
//
//	regexsample -pattern "(a|b)*abb" -alphabet ab -n 10 -samples 5
//	regexsample -pattern "[ab]+[01][ab01]*" -alphabet ab01 -n 12 -count-only
//	regexsample -pattern "aa*b" -alphabet ab -n 8 -samples 4 -distinct
//	regexsample -pattern "aa*b" -alphabet ab -n 8 -at 17
//	regexsample -pattern "a(a|b)*" -alphabet ab -n 8 -enum -limit 20
//	regexsample -pattern "a(a|b)*" -alphabet ab -n 8 -enum -cursor el1:...
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/instcache"
	"repro/internal/regex"
)

// sharedCache is the process-wide compiled-index cache: repeated runs in
// one process (a REPL-style caller, or the tests' run() calls) reuse the
// counting index of a pattern — or of any pattern whose automaton has the
// same normal form — instead of re-sweeping. -cache-stats prints its counters.
var sharedCache = instcache.New(instcache.DefaultBudget)

// exitInterrupted is the conventional exit code for a SIGINT-terminated
// process (128 + SIGINT).
const exitInterrupted = 130

// errInterrupted marks a cooperative cancellation that already printed
// its resume token — run maps it to exitInterrupted instead of a plain
// failure.
var errInterrupted = errors.New("interrupted")

func main() {
	// The first signal cancels ctx for a cooperative stop; a second
	// signal kills hard (signal.NotifyContext restores default handling
	// once stopped... the deferred stop only runs on the graceful path).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and returns
// the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("regexsample", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		pattern   = fs.String("pattern", "", "regular expression")
		alphabet  = fs.String("alphabet", "", "alphabet characters, e.g. ab01")
		n         = fs.Int("n", 0, "string length")
		samples   = fs.Int("samples", 3, "number of uniform samples to draw")
		countOnly = fs.Bool("count-only", false, "print the count and exit")
		distinct  = fs.Bool("distinct", false, "sample without replacement (unambiguous patterns only)")
		at        = fs.String("at", "", "print the match at this 0-based rank of the enumeration order and exit (unambiguous patterns only)")
		enum      = fs.Bool("enum", false, "enumerate matches in canonical order instead of sampling")
		limit     = fs.Int("limit", 0, "stop the enumeration after this many matches (0 = all)")
		cursor    = fs.String("cursor", "", "resume the enumeration from this el1: token (implies -enum)")
		delta     = fs.Float64("delta", 0.1, "FPRAS target relative error")
		k         = fs.Int("k", 0, "FPRAS sketch size override")
		seed      = fs.Int64("seed", 0, "random seed (0 = fixed default)")
		cacheStat = fs.Bool("cache-stats", false, "print compiled-index cache counters on stderr after the command")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(msg string) int {
		fmt.Fprintln(stderr, "regexsample: "+msg)
		return 1
	}
	if *pattern == "" || *alphabet == "" || *n < 0 {
		fmt.Fprintln(stderr, "usage: regexsample -pattern REGEX -alphabet CHARS -n LENGTH [-samples N [-distinct] | -count-only | -at RANK | -enum [-limit N] [-cursor TOKEN]]")
		return 2
	}
	names := make([]string, 0, len(*alphabet))
	seen := map[rune]bool{}
	for _, r := range *alphabet {
		if seen[r] {
			return fail(fmt.Sprintf("duplicate alphabet character %q", string(r)))
		}
		seen[r] = true
		names = append(names, string(r))
	}
	alpha := automata.NewAlphabet(names...)
	nfa, err := regex.Compile(*pattern, alpha)
	if err != nil {
		return fail(err.Error())
	}
	inst, err := core.New(nfa, *n, core.Options{Delta: *delta, K: *k, Seed: *seed, Cache: sharedCache})
	if err != nil {
		return fail(err.Error())
	}
	if *cacheStat {
		// Deferred closure: the snapshot must be taken after the command
		// ran, not when the defer is registered.
		defer func() { fmt.Fprintln(stderr, "cache: "+sharedCache.Stats().String()) }()
	}
	if *enum || *cursor != "" {
		err := runEnum(ctx, stdout, stderr, inst, *cursor, *limit)
		if errors.Is(err, errInterrupted) {
			return exitInterrupted
		}
		if err != nil {
			return fail(err.Error())
		}
		return 0
	}
	if *at != "" {
		rank, ok := new(big.Int).SetString(*at, 10)
		if !ok {
			return fail(fmt.Sprintf("malformed rank %q (want a decimal integer)", *at))
		}
		w, err := inst.UnrankCtx(ctx, rank)
		if err != nil {
			return fail(err.Error())
		}
		fmt.Fprintln(stdout, inst.FormatWord(w))
		return 0
	}
	v, isExact, err := inst.CountCtx(ctx)
	if err != nil {
		return fail(err.Error())
	}
	kind := "≈ (FPRAS)"
	if isExact {
		kind = "exact"
	}
	fmt.Fprintf(stdout, "matches of length %d: %s (%s; class %s)\n", *n, v.Text('f', 0), kind, inst.Class())
	if *countOnly {
		return 0
	}
	if *distinct {
		ws, err := inst.SampleDistinctCtx(ctx, *samples)
		if err == core.ErrEmpty {
			fmt.Fprintln(stdout, "⊥ (no matches at this length)")
			return 0
		}
		if err != nil {
			return fail(err.Error())
		}
		for _, w := range ws {
			fmt.Fprintln(stdout, inst.FormatWord(w))
		}
		return 0
	}
	for i := 0; i < *samples; i++ {
		// Per-draw cooperative stop: sampling has no cursor to mint, so an
		// interrupt simply ends the batch early with the draws printed.
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(stderr, "# interrupted after %d samples\n", i)
			return exitInterrupted
		}
		w, err := inst.Sample()
		if err == core.ErrEmpty {
			fmt.Fprintln(stdout, "⊥ (no matches at this length)")
			return 0
		}
		if err != nil {
			return fail(err.Error())
		}
		fmt.Fprintln(stdout, inst.FormatWord(w))
	}
	return 0
}

// runEnum streams the canonical-order enumeration, resuming from cursor
// when given. An interrupt (SIGINT → ctx cancellation) stops the session
// cooperatively at a delivery-batch boundary and prints the checkpoint
// token — resuming from it continues bitwise where the signal landed.
func runEnum(ctx context.Context, w, errw io.Writer, inst *core.Instance, cursor string, limit int) error {
	s, err := inst.Enumerate(core.CursorOptions{
		Ctx:     ctx,
		Cursor:  cursor,
		Limit:   limit,
		Ordered: true,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	count := 0
	for {
		word, ok := s.Next()
		if !ok {
			break
		}
		// A failed write (broken pipe under `regexsample -enum | head`)
		// must stop the enumeration instead of burning through the whole
		// language.
		if _, err := fmt.Fprintln(w, inst.FormatWord(word)); err != nil {
			return fmt.Errorf("writing match: %w", err)
		}
		count++
	}
	if err := s.Err(); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// SIGINT stopped the session cooperatively: the session's
			// position is a valid checkpoint, so print the resume token
			// exactly like a completed page.
			if tok, ok := s.Token(); ok {
				fmt.Fprintf(errw, "# interrupted after %d witnesses (%s); resume with -cursor %s\n",
					count, inst.Class(), tok)
				return errInterrupted
			}
		}
		return err
	}
	if tok, ok := s.Token(); ok {
		fmt.Fprintf(errw, "# %d witnesses (%s, limit %d); resume with -cursor %s\n",
			count, inst.Class(), limit, tok)
	} else {
		fmt.Fprintf(errw, "# %d witnesses (%s, limit %d)\n", count, inst.Class(), limit)
	}
	return nil
}
