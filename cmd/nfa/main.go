// Command nfa is the CLI for MEM-NFA instances: given an automaton file
// (the text format of internal/automata) and a witness length, it reports
// instance facts (info), counts witnesses exactly or approximately (count),
// enumerates them (enum), samples them uniformly (sample) — the three
// problems of the paper, dispatched per complexity class by internal/core —
// and, for unambiguous instances, gives ranked random access (rank,
// unrank) through the counting index.
//
// Usage:
//
//	nfa info   -f automaton.txt
//	nfa count  -f automaton.txt -n 12 [-exact] [-delta 0.1] [-k 96] [-seed 1] [-workers 8]
//	nfa enum   -f automaton.txt -n 12 [-limit 20] [-cursor TOKEN | -seek RANK] [-workers 8]
//	           [-unordered] [-budget 1024] [-steal 64] [-v]
//	nfa sample -f automaton.txt -n 12 [-count 5] [-distinct] [-seed 1] [-workers 8]
//	nfa rank   -f automaton.txt -n 12 -w WITNESS
//	nfa unrank -f automaton.txt -n 12 -r RANK
//
// rank and unrank convert between a witness and its 0-based index in the
// enumeration order (RelationUL only — ranked access for an ambiguous NFA
// would imply exact #NFA counting); enum -seek RANK starts the listing at
// that index in O(n) without replaying a cursor, and sample -distinct
// draws without replacement.
//
// Every problem also has a length-RANGE form: passing -lo L -hi H (in
// place of -n) serves the union of all witness lengths in [L, H] from one
// shared cross-length index (internal/lengthrange) — count prints the
// exact union size, enum lists witnesses shortest first (the resume token
// is an el1:R: range token; -seek is then a global rank into the union),
// sample draws each length with probability proportional to its exact
// count, and rank/unrank convert against the global length-lexicographic
// order. Exact range counting/sampling/ranking is RelationUL-only; range
// enum works for both classes.
//
// -workers bounds the parallelism of the FPRAS build, of batched sampling,
// and of sharded enumeration (0 = all cores, 1 = serial); it changes
// wall-clock only, never the output for a fixed seed (enum merges shards
// back into canonical order unless -unordered asks for throughput mode).
// Parallel enumeration is scheduled by work-stealing: -steal sets how many
// words a shard produces before idle workers may re-split it, -budget caps
// the words buffered ahead of the ordered merge (far-ahead shards spill to
// their cursors and reopen later), and -v dumps the per-shard completion
// statistics on stderr after the run.
//
// Enumeration is paginated: enum prints a resume token on stderr, and
// -cursor continues a previous listing exactly where it stopped — serial
// runs mint a single-position cursor, parallel runs a multi-cell frontier
// token, and either kind resumes with any -workers value (the token embeds
// a fingerprint of the automaton, so it must be replayed against the same
// file and length).
//
// Ctrl-C (SIGINT) and SIGTERM stop long-running subcommands cooperatively:
// enum finishes its current delivery batch, prints the resume token on
// stderr, and exits with code 130 — an interrupt is a checkpoint, never a
// truncated-state corruption. -limits installs an admission policy
// (comma-separated caps: length, span, states, budget, batch, bytes) that
// rejects over-limit requests up front, before any length-sized
// precomputation.
//
// Compiled indexes are resolved through one process-wide cache keyed by
// canonical automaton identity (internal/instcache), so repeated queries
// — same automaton or a relabelled isomorph of a DFA — skip the counting
// sweep; -cache-stats prints the cache counters on stderr after the
// command.
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

	"repro/internal/admission"
	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/exact"
	"repro/internal/instcache"
)

// exitInterrupted is the conventional exit code for a SIGINT-terminated
// process (128 + SIGINT). The CLI uses it after a clean cooperative
// shutdown: the resume token has been printed, nothing is corrupted.
const exitInterrupted = 130

// sharedCache is the process-wide compiled-index cache every instance the
// CLI creates resolves its builds through: repeated queries in one process
// (including every run() call in tests) reuse compiled indexes across
// instances; -cache-stats prints its counters. Byte-budgeted LRU, so a
// long-lived process cannot pin unbounded index memory.
var sharedCache = instcache.New(instcache.DefaultBudget)

func main() {
	// SIGINT/SIGTERM cancel the context instead of killing the process:
	// long-running subcommands stop at their next delivery-batch (or
	// build-layer) boundary, enum prints its resume token, and a SECOND
	// signal kills hard (signal.NotifyContext restores default handling
	// once the context is done).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes one
// subcommand, and returns the process exit code. ctx cancels
// long-running subcommands cooperatively (checkpoint, not corruption).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd := args[0]
	switch cmd {
	case "info", "count", "enum", "sample", "rank", "unrank":
	default:
		usage(stderr)
		return 2
	}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		file      = fs.String("f", "", "automaton file (see internal/automata text format)")
		n         = fs.Int("n", 0, "witness length")
		limit     = fs.Int("limit", 20, "max witnesses to enumerate (enum)")
		count     = fs.Int("count", 1, "number of samples (sample)")
		exactF    = fs.Bool("exact", false, "force exact counting (count; may be exponential)")
		delta     = fs.Float64("delta", 0.1, "FPRAS target relative error (count)")
		k         = fs.Int("k", 0, "FPRAS sketch size override")
		seed      = fs.Int64("seed", 0, "random seed (0 = fixed default)")
		workers   = fs.Int("workers", 0, "FPRAS build/sampling/enum parallelism (0 = all cores)")
		cursor    = fs.String("cursor", "", "resume a previous enum from its token (enum)")
		seek      = fs.String("seek", "", "start enum at this 0-based rank of the enumeration order (enum; RelationUL)")
		unordered = fs.Bool("unordered", false, "parallel enum in arrival order (throughput mode; enum)")
		budget    = fs.Int("budget", 0, "parallel enum merge budget in words (0 = default; enum)")
		steal     = fs.Int("steal", 0, "words between shard re-splits (0 = default; enum)")
		verbose   = fs.Bool("v", false, "print per-shard scheduler stats on stderr (enum)")
		distinct  = fs.Bool("distinct", false, "sample without replacement (sample; RelationUL)")
		word      = fs.String("w", "", "witness to rank, in alphabet symbols (rank)")
		rankStr   = fs.String("r", "", "0-based rank to unrank (unrank)")
		loF       = fs.Int("lo", -1, "lower witness length of a range form (use with -hi in place of -n)")
		hiF       = fs.Int("hi", -1, "upper witness length of a range form (use with -lo in place of -n)")
		limitsF   = fs.String("limits", "", "admission policy, e.g. length=4096,span=256,states=100000,budget=65536,batch=1000000,bytes=2gib (empty = unlimited)")
		cacheStat = fs.Bool("cache-stats", false, "print compiled-index cache counters on stderr after the command")
	)
	if err := fs.Parse(args[1:]); err != nil {
		if err == flag.ErrHelp {
			// -h / -help is a successful outcome, not a usage error.
			return 0
		}
		return 2
	}
	if *steal < 0 {
		fmt.Fprintf(stderr, "nfa: -steal %d: want ≥ 0\n", *steal)
		return 2
	}
	// Flags whose zero value is meaningful (-n 0, -w "") need "was it
	// passed" tracked separately from the value.
	explicitFlags := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicitFlags[f.Name] = true })
	fail := func(msg string) int {
		fmt.Fprintln(stderr, "nfa: "+msg)
		return 1
	}
	if *file == "" {
		return fail("missing -f automaton file")
	}
	rangeMode := *loF >= 0 || *hiF >= 0
	if rangeMode {
		if *loF < 0 || *hiF < 0 || *loF > *hiF {
			return fail(fmt.Sprintf("bad length range -lo %d -hi %d (need 0 ≤ lo ≤ hi)", *loF, *hiF))
		}
		if cmd == "info" {
			return fail("info has no range form (it takes -n only)")
		}
		// -lo/-hi replace -n; silently ignoring an explicit -n would make
		// the output answer a different question than the user asked.
		if explicitFlags["n"] {
			return fail("-n conflicts with -lo/-hi (the range form replaces the single length)")
		}
	}
	f, err := os.Open(*file)
	if err != nil {
		return fail(err.Error())
	}
	nfa, err := automata.Unmarshal(f)
	f.Close()
	if err != nil {
		return fail(err.Error())
	}

	switch cmd {
	case "info":
		runInfo(stdout, nfa, *n)
		return 0
	case "count", "enum", "sample", "rank", "unrank":
		length := *n
		if rangeMode {
			// The instance length is only the classic single-length API's
			// parameter; range forms carry [lo, hi] explicitly.
			length = *hiF
		}
		limits, lerr := admission.Parse(*limitsF)
		if lerr != nil {
			return fail(lerr.Error())
		}
		inst, err := core.New(nfa, length, core.Options{Delta: *delta, K: *k, Seed: *seed, Workers: *workers, Limits: limits, Cache: sharedCache})
		if err != nil {
			return fail(err.Error())
		}
		if *cacheStat {
			// Deferred closure: the snapshot must be taken after the
			// command ran, not when the defer is registered.
			defer func() { fmt.Fprintln(stderr, "cache: "+sharedCache.Stats().String()) }()
		}
		switch cmd {
		case "count":
			if rangeMode {
				err = runCountRange(stdout, inst, *loF, *hiF)
			} else {
				err = runCount(ctx, stdout, inst, *exactF)
			}
		case "enum":
			err = runEnum(ctx, stdout, stderr, inst, enumConfig{
				limit: *limit, workers: *workers, cursor: *cursor, seek: *seek,
				unordered: *unordered, budget: *budget, steal: *steal, verbose: *verbose,
				rangeMode: rangeMode, lo: *loF, hi: *hiF,
			})
			if errors.Is(err, errInterrupted) {
				// The token is already on stderr; exit with the SIGINT
				// convention so scripts can tell "interrupted, resumable"
				// from a hard failure.
				fmt.Fprintln(stderr, "nfa: interrupted")
				return exitInterrupted
			}
		case "sample":
			if rangeMode && *distinct {
				err = fmt.Errorf("-distinct has no range form yet (draw and deduplicate, or use rank-space rejection per length)")
			} else if rangeMode {
				err = runSampleRange(ctx, stdout, inst, *loF, *hiF, *count, *workers)
			} else {
				err = runSample(ctx, stdout, inst, *count, *workers, *distinct)
			}
		case "rank":
			err = runRank(stdout, inst, *word, explicitFlags["w"], rangeMode, *loF, *hiF)
		case "unrank":
			err = runUnrank(stdout, inst, *rankStr, rangeMode, *loF, *hiF)
		}
		if err != nil {
			return fail(err.Error())
		}
	}
	return 0
}

// errInterrupted marks a cooperative cancellation that already printed
// its resume token — run maps it to exitInterrupted instead of a plain
// failure.
var errInterrupted = errors.New("interrupted")

// parseRank parses a decimal rank argument.
func parseRank(s string) (*big.Int, error) {
	r, ok := new(big.Int).SetString(s, 10)
	if !ok {
		return nil, fmt.Errorf("malformed rank %q (want a decimal integer)", s)
	}
	return r, nil
}

func runRank(w io.Writer, inst *core.Instance, witness string, witnessSet, rangeMode bool, lo, hi int) error {
	// An explicitly passed -w "" is the empty word ε — a legitimate rank
	// query on ranges that include length 0; only an OMITTED -w is an
	// error.
	if witness == "" && !witnessSet {
		return fmt.Errorf("missing -w witness")
	}
	word, err := inst.Automaton().Alphabet().ParseWord(witness)
	if err != nil {
		return err
	}
	var r *big.Int
	if rangeMode {
		r, err = inst.RankRange(lo, hi, word)
	} else {
		r, err = inst.Rank(word)
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(w, r.String())
	return nil
}

func runUnrank(w io.Writer, inst *core.Instance, rankStr string, rangeMode bool, lo, hi int) error {
	if rankStr == "" {
		return fmt.Errorf("missing -r rank")
	}
	r, err := parseRank(rankStr)
	if err != nil {
		return err
	}
	var word automata.Word
	if rangeMode {
		word, err = inst.UnrankRange(lo, hi, r)
	} else {
		word, err = inst.Unrank(r)
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, inst.FormatWord(word))
	return err
}

// runCountRange prints the exact size of the union of all lengths in
// [lo, hi] (RelationUL only — range counting for an ambiguous NFA would
// imply exact #NFA counting).
func runCountRange(w io.Writer, inst *core.Instance, lo, hi int) error {
	total, err := inst.TotalRange(lo, hi)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s (exact, %s, lengths %d..%d)\n", total, inst.Class(), lo, hi)
	return nil
}

// runSampleRange draws from the union of lengths (each length weighted
// by its exact count; bitwise identical for every -workers value).
func runSampleRange(ctx context.Context, w io.Writer, inst *core.Instance, lo, hi, count, workers int) error {
	ws, err := inst.SampleManyRangeCtx(ctx, lo, hi, count, workers)
	if err == core.ErrEmpty {
		fmt.Fprintln(w, "⊥ (witness set empty)")
		return nil
	}
	if err != nil {
		return err
	}
	for _, witness := range ws {
		if _, err := fmt.Fprintln(w, inst.FormatWord(witness)); err != nil {
			return fmt.Errorf("writing witness: %w", err)
		}
	}
	return nil
}

func runInfo(w io.Writer, n *automata.NFA, length int) {
	trimmed := automata.Trim(n)
	fmt.Fprintf(w, "states:        %d (trimmed: %d)\n", n.NumStates(), trimmed.NumStates())
	fmt.Fprintf(w, "transitions:   %d\n", n.NumTransitions())
	fmt.Fprintf(w, "alphabet:      %v\n", n.Alphabet().Names())
	fmt.Fprintf(w, "start/final:   %d / %v\n", n.Start(), n.Finals())
	fmt.Fprintf(w, "deterministic: %v\n", automata.IsDeterministic(trimmed))
	unamb := automata.IsUnambiguous(trimmed)
	fmt.Fprintf(w, "unambiguous:   %v\n", unamb)
	if unamb {
		fmt.Fprintln(w, "class:         RelationUL (constant-delay enum, exact count, exact uniform gen)")
	} else {
		fmt.Fprintln(w, "class:         RelationNL (poly-delay enum, FPRAS count, Las Vegas uniform gen)")
	}
	if length > 0 {
		if unamb {
			fmt.Fprintf(w, "|L_%d|:        %s (exact)\n", length, exact.CountUFA(trimmed, length))
		} else if c, err := exact.CountNFA(trimmed, length, 1<<18); err == nil {
			fmt.Fprintf(w, "|L_%d|:        %s (exact, subset DP)\n", length, c)
		} else {
			fmt.Fprintf(w, "|L_%d|:        exact counting infeasible (%v); use `nfa count`\n", length, err)
		}
	}
}

func runCount(ctx context.Context, w io.Writer, inst *core.Instance, forceExact bool) error {
	if forceExact {
		c, err := inst.CountExact(0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s (exact, %s)\n", c, inst.Class())
		return nil
	}
	v, isExact, err := inst.CountCtx(ctx)
	if err != nil {
		return err
	}
	kind := "FPRAS estimate"
	if isExact {
		kind = "exact"
	}
	fmt.Fprintf(w, "%s (%s, %s)\n", v.Text('f', 0), kind, inst.Class())
	return nil
}

// enumConfig carries the enum subcommand's flags.
type enumConfig struct {
	limit, workers, budget, steal int
	cursor, seek                  string
	unordered, verbose            bool
	rangeMode                     bool
	lo, hi                        int
}

func runEnum(ctx context.Context, w, errw io.Writer, inst *core.Instance, cfg enumConfig) error {
	var seekRank *big.Int
	if cfg.seek != "" {
		r, err := parseRank(cfg.seek)
		if err != nil {
			return err
		}
		seekRank = r
	}
	opts := core.CursorOptions{
		Ctx:            ctx,
		Cursor:         cfg.cursor,
		SeekRank:       seekRank,
		Limit:          cfg.limit,
		Workers:        cfg.workers,
		Ordered:        !cfg.unordered, // shards merge back into canonical order by default
		MergeBudget:    cfg.budget,
		StealThreshold: cfg.steal,
	}
	var s enumerate.Session
	var err error
	switch {
	case cfg.rangeMode:
		s, err = inst.EnumerateRange(cfg.lo, cfg.hi, opts)
	case enumerate.IsRangeToken(cfg.cursor):
		// The stderr resume hint prints bare `-cursor el1:R:...`, so a
		// range token must resume without re-supplying -lo/-hi: the range
		// comes from the (fingerprint-validated) token itself.
		s, err = inst.EnumerateRangeFrom(cfg.cursor, opts)
	default:
		s, err = inst.Enumerate(opts)
	}
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
		// A failed write (broken pipe under `nfa enum | head`) must stop
		// the enumeration instead of burning through the whole language.
		if _, err := fmt.Fprintln(w, inst.FormatWord(word)); err != nil {
			return fmt.Errorf("writing witness: %w", err)
		}
		count++
	}
	if err := s.Err(); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// SIGINT (or a deadline) stopped the session cooperatively:
			// the session's position is a valid checkpoint, so print the
			// resume token exactly like a completed page.
			if tok, ok := s.Token(); ok {
				fmt.Fprintf(errw, "# interrupted after %d witnesses (%s); resume with -cursor %s\n",
					count, inst.Class(), tok)
				return errInterrupted
			}
		}
		return err
	}
	mode := ""
	if cfg.unordered {
		mode = ", unordered"
	}
	if tok, ok := s.Token(); ok {
		fmt.Fprintf(errw, "# %d witnesses (%s, limit %d%s); resume with -cursor %s\n",
			count, inst.Class(), cfg.limit, mode, tok)
	} else {
		fmt.Fprintf(errw, "# %d witnesses (%s, limit %d%s)\n",
			count, inst.Class(), cfg.limit, mode)
	}
	if cfg.verbose {
		printEnumStats(errw, s)
	}
	return nil
}

// printEnumStats dumps the work-stealing scheduler's per-shard completion
// statistics (parallel sessions only).
func printEnumStats(errw io.Writer, s enumerate.Session) {
	stats, ok := enumerate.SessionStats(s)
	if !ok {
		fmt.Fprintln(errw, "# serial session (no shard stats)")
		return
	}
	stats.Fprint(errw)
}

func runSample(ctx context.Context, w io.Writer, inst *core.Instance, count, workers int, distinct bool) error {
	var ws []automata.Word
	var err error
	if distinct {
		ws, err = inst.SampleDistinct(count)
	} else {
		ws, err = inst.SampleManyParallelCtx(ctx, count, workers)
	}
	if err == core.ErrEmpty {
		fmt.Fprintln(w, "⊥ (witness set empty)")
		return nil
	}
	if err != nil {
		return err
	}
	for _, witness := range ws {
		if _, err := fmt.Fprintln(w, inst.FormatWord(witness)); err != nil {
			return fmt.Errorf("writing witness: %w", err)
		}
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: nfa <info|count|enum|sample|rank|unrank> -f FILE -n LENGTH [flags]
  info    automaton facts, class detection, exact count when feasible
  count   |L_n| — exact for unambiguous automata, FPRAS otherwise
  enum    enumerate witnesses (constant or polynomial delay per class;
          -seek RANK starts at that index for unambiguous instances)
  sample  uniform witnesses (exact or Las Vegas per class; -distinct
          draws without replacement for unambiguous instances)
  rank    witness -> its 0-based index in enumeration order (RelationUL)
  unrank  0-based index -> witness (RelationUL)
count/enum/sample/rank/unrank also take -lo L -hi H in place of -n: the
range form serves the union of all lengths in [L, H] from one shared
cross-length index, in length-lexicographic order (shortest first).`)
}
