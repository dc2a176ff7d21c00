// Command spanner runs a document-spanner extraction rule (§4.1 of the
// paper) over a document: count the extracted mappings (exact or FPRAS per
// class), enumerate them with class-appropriate delay, or sample them
// uniformly.
//
// Rules are regexes with capture variables, e.g.
//
//	spanner -rule ".*(user: a+)=(val: [0-9]+).*" -alphabet "a=0123456789" -doc "aaa=42" -enum -limit 10
//	spanner -rule ".*(x: err).*" -alphabet aber -doc abberraerr -count
//	spanner -rule ".*(x: e(r)+).*" -alphabet aber -doc abberraerr -sample 3
//
// Enumeration is paginated: with -limit the command prints a resume token
// on stderr, and -cursor continues a previous listing exactly where it
// stopped. -workers N (N > 1) enumerates prefix shards in parallel under a
// work-stealing scheduler, merged back into canonical order (-unordered
// switches to arrival-order throughput mode); -steal and -budget tune the
// re-shard pacing and the ordered-merge memory bound, -v dumps per-shard
// scheduler statistics, and parallel runs mint multi-cell frontier tokens
// that -cursor resumes with any worker count.
//
// Ctrl-C (SIGINT) and SIGTERM stop a long-running enumeration
// cooperatively: the command finishes its current delivery batch, prints
// the resume token on stderr, and exits with code 130 — an interrupt is a
// checkpoint, never corruption. -limits installs an admission policy
// (comma-separated caps: length, span, states, budget, batch, bytes) that
// rejects over-limit requests before any length-sized precomputation.
// Compiled counting indexes are kept in a process-wide cache keyed by the
// canonical identity of the product automaton, so repeated queries in one
// process reuse them; -cache-stats prints the cache counters on stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/instcache"
	"repro/internal/spanner"
)

// sharedCache is the process-wide compiled-index cache: repeated runs in
// one process (a REPL-style caller, or the tests' run() calls) reuse the
// counting index of a rule/document pair — or of any pair whose product
// automaton has the same normal form — instead of re-sweeping.
// -cache-stats prints its counters.
var sharedCache = instcache.New(instcache.DefaultBudget)

// exitInterrupted is the conventional exit code for a SIGINT-terminated
// process (128 + SIGINT), used after a clean cooperative shutdown.
const exitInterrupted = 130

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes the query,
// and returns the process exit code. ctx cancels a long-running
// enumeration cooperatively (resume token printed, exit 130).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spanner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rule      = fs.String("rule", "", "extraction rule: regex with (name: ...) captures")
		alphabet  = fs.String("alphabet", "", "document alphabet characters")
		doc       = fs.String("doc", "", "document text")
		docFile   = fs.String("docfile", "", "read the document from a file instead")
		count     = fs.Bool("count", false, "print the number of mappings")
		enum      = fs.Bool("enum", false, "enumerate mappings")
		limit     = fs.Int("limit", 0, "max mappings to enumerate (0 = all; prints a resume token)")
		cursor    = fs.String("cursor", "", "resume a previous enumeration from its token")
		workers   = fs.Int("workers", 0, "parallel enumeration shard workers (≤ 1 = serial)")
		unordered = fs.Bool("unordered", false, "parallel enumeration in arrival order (throughput mode)")
		budget    = fs.Int("budget", 0, "parallel merge budget in words (0 = default)")
		steal     = fs.Int("steal", 0, "words between shard re-splits (0 = default)")
		verbose   = fs.Bool("v", false, "print per-shard scheduler stats on stderr")
		sampleN   = fs.Int("sample", 0, "sample N uniform mappings")
		seed      = fs.Int64("seed", 0, "random seed")
		k         = fs.Int("k", 0, "FPRAS sketch size override")
		limitsF   = fs.String("limits", "", "admission policy, e.g. length=4096,states=100000,batch=1000000 (empty = unlimited)")
		cacheStat = fs.Bool("cache-stats", false, "print compiled-index cache counters on stderr after the command")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(msg string) int {
		fmt.Fprintln(stderr, "spanner: "+msg)
		return 1
	}
	if *steal < 0 {
		fmt.Fprintf(stderr, "spanner: -steal %d: want ≥ 0\n", *steal)
		return 2
	}
	if *rule == "" || *alphabet == "" {
		fmt.Fprintln(stderr, "usage: spanner -rule RULE -alphabet CHARS (-doc TEXT | -docfile FILE) [-count|-enum [-limit N] [-cursor TOK] [-workers W] [-unordered] [-budget B] [-steal S] [-v]|-sample N] [-limits SPEC]")
		return 2
	}
	if *docFile != "" {
		data, err := os.ReadFile(*docFile)
		if err != nil {
			return fail(err.Error())
		}
		*doc = string(data)
	}
	r, err := spanner.CompileRule(*rule, *alphabet)
	if err != nil {
		return fail(err.Error())
	}
	if !r.EVA().IsFunctional() {
		return fail("compiled rule is not functional (internal error)")
	}
	inst, err := spanner.BuildInstance(r.EVA(), *doc)
	if err != nil {
		return fail(err.Error())
	}
	limits, err := admission.Parse(*limitsF)
	if err != nil {
		return fail(err.Error())
	}
	ci, err := core.New(inst.N, inst.Length, core.Options{Seed: *seed, K: *k, Limits: limits, Cache: sharedCache})
	if err != nil {
		return fail(err.Error())
	}
	if *cacheStat {
		// Deferred closure: the snapshot must be taken after the command
		// ran, not when the defer is registered.
		defer func() { fmt.Fprintln(stderr, "cache: "+sharedCache.Stats().String()) }()
	}
	if *cursor != "" || *limit > 0 {
		*enum = true
	}
	if !*count && !*enum && *sampleN == 0 {
		*count = true
	}
	if *count {
		v, isExact, err := ci.CountCtx(ctx)
		if err != nil {
			return fail(err.Error())
		}
		kind := "FPRAS estimate"
		if isExact {
			kind = "exact"
		}
		fmt.Fprintf(stdout, "mappings: %s (%s, %s)\n", v.Text('f', 0), kind, ci.Class())
	}
	if *enum {
		ms, err := inst.Enumerate(ci, core.CursorOptions{
			Ctx:            ctx,
			Cursor:         *cursor,
			Limit:          *limit,
			Workers:        *workers,
			Ordered:        !*unordered,
			MergeBudget:    *budget,
			StealThreshold: *steal,
		})
		if err != nil {
			return fail(err.Error())
		}
		printed := 0
		for {
			mp, ok := ms.Next()
			if !ok {
				break
			}
			printMapping(stdout, r, mp, *doc)
			printed++
		}
		if err := ms.Err(); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// A signal stopped the session cooperatively: its position
				// is a valid checkpoint, so print the resume token exactly
				// like a completed page and exit with the SIGINT code.
				if tok, ok := ms.Token(); ok {
					fmt.Fprintf(stderr, "# interrupted after %d mappings; resume with -cursor %s\n", printed, tok)
					ms.Close()
					return exitInterrupted
				}
			}
			return fail(err.Error())
		}
		if tok, ok := ms.Token(); ok {
			fmt.Fprintf(stderr, "# %d mappings; resume with -cursor %s\n", printed, tok)
		} else {
			fmt.Fprintf(stderr, "# %d mappings\n", printed)
		}
		if *verbose {
			if stats, ok := ms.Stats(); ok {
				stats.Fprint(stderr)
			} else {
				fmt.Fprintln(stderr, "# serial session (no shard stats)")
			}
		}
		ms.Close()
	}
	for i := 0; i < *sampleN; i++ {
		w, err := ci.Sample()
		if err == core.ErrEmpty {
			fmt.Fprintln(stdout, "⊥ (no mappings)")
			return 0
		}
		if err != nil {
			return fail(err.Error())
		}
		mp, err := inst.DecodeMapping(w)
		if err != nil {
			return fail(err.Error())
		}
		printMapping(stdout, r, mp, *doc)
	}
	return 0
}

func printMapping(w io.Writer, r *spanner.Rule, mp spanner.Mapping, doc string) {
	fmt.Fprint(w, mp.Format(r.Vars))
	for v, s := range mp {
		fmt.Fprintf(w, "  %s=%q", r.Vars[v], s.Content(doc))
	}
	fmt.Fprintln(w)
}
