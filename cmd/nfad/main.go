// Command nfad serves the PODS'19 enumeration engine over HTTP:
// counting, enumeration, uniform sampling, and rank/unrank on NFA/UFA
// witness languages, paginated with self-contained el1: resume tokens.
// The server is stateless — tokens are fingerprinted cursors that any
// replica can resume, so nfad scales horizontally behind a naive load
// balancer with no session affinity.
//
// # HTTP API reference
//
// Problem endpoints accept POST with a JSON body (fields below) and an
// optional X-Tenant header selecting a per-tenant admission policy:
//
//	POST /v1/count    {"automaton", "n" | "lo","hi", "exact", "delta"}
//	                  → {"class", "count", "exact"}
//	POST /v1/enum     {"automaton", "n" | "lo","hi", "limit", "cursor",
//	                   "seek", "workers"}
//	                  → {"class", "words", "token", "done"}
//	POST /v1/sample   {"automaton", "n" | "lo","hi", "samples",
//	                   "distinct", "seed", "workers"}
//	                  → {"class", "words"} or {"class", "empty": true}
//	POST /v1/rank     {"automaton", "n" | "lo","hi", "word"}
//	                  → {"class", "rank"}
//	POST /v1/unrank   {"automaton", "n" | "lo","hi", "rank"}
//	                  → {"class", "word"}
//	GET  /v1/stats    → {"requests", "rejections", "checkpoints",
//	                   "failures", "cache", "entries"}
//	GET  /healthz     → "ok"
//
// Common request fields: "automaton" is the instance in the text format
// of internal/automata (alphabet:/states:/start:/final:/transitions:);
// "n" selects a single witness length, "lo"+"hi" the cross-length range
// form; "timeout_ms" sets a per-request deadline (the server's -timeout
// caps it); "seed" pins randomized answers; "workers" bounds engine
// parallelism within the server's -workers cap.
//
// # Token envelope
//
// Every /v1/enum page carries "token": a self-contained el1: cursor
// (fingerprint + frontier) naming the exact resume position. Paging is
// POST, read "words", POST again with "cursor" set to "token" —
// against the same replica or any other; transcripts are bitwise
// identical either way. "done" is true once the stream is exhausted. A
// "seek" rank opens the stream at that 0-based position instead
// (RelationUL; global rank on range streams). An el1:R: range cursor
// carries its own range, so resume requests may omit n/lo/hi.
//
// # Error codes
//
// Errors are JSON: {"error": "...", "token": "..."} (token only where
// noted).
//
//	422 Unprocessable Entity — admission.ErrRejected: the per-tenant
//	    policy (X-Tenant → -tenant-limits, else -limits) rejected the
//	    request BEFORE any length-sized precompute, and a states= limit
//	    rejects the automaton's declared "states:" count before anything
//	    state-sized is allocated (the parse validates the text first, so
//	    a malformed automaton is still a 400). The body says which limit
//	    tripped. Without a states= limit (the zero configuration) the
//	    declared count is trusted, as the witness length is without a
//	    length= limit: the parser sizes the automaton's tables from it.
//	    RelationUL /v1/enum pages open on the counting index, so a
//	    bytes= limit below its estimated footprint rejects them too.
//	408 Request Timeout — the request context was cancelled or its
//	    deadline expired. For /v1/enum the body carries "token", the
//	    checkpoint of the interrupted stream, and "words", the partial
//	    page enumerated before the deadline: cancel is a checkpoint,
//	    never corruption; append "words", resume from "token", and the
//	    transcript continues bitwise where the deadline landed.
//	400 Bad Request — malformed body, automaton, cursor, rank, or an
//	    instance/endpoint mismatch (e.g. rank on an ambiguous NFA).
//	405 Method Not Allowed — wrong HTTP method.
//
// # Lifecycle
//
// One process-wide compiled-index cache (-cache-budget bytes) is shared
// across all tenants; automata with one normal form (the same automaton,
// or relabellings of one DFA) resolve to one entry, and concurrent misses
// singleflight into one build. An entry is one counting index per normal
// form and length range, a single length n being the range [n, n]
// (single-length and range requests at [n, n] share one entry). GET
// /v1/stats exposes the cache counters ("cache": Hits, Misses, Builds,
// BuildErrors, Evictions, Entries, Bytes, Budget) and one object per
// resident entry, most recently used first ("entries": Pre and States,
// the normal form's structural pre-hash and state count — a label, not
// an identity; Lo and Hi; Bytes, the estimated index bytes, i.e. memory
// per cached tenant; Hits, Misses, Builds). No entry carries automaton
// text. RelationUL enum pages read the
// same entries as count, rank and sample: a resumed page costs a lookup
// and an O(n) walk, not a precomputation. On SIGTERM or SIGINT the
// server stops accepting connections and drains in-flight requests
// (bounded by -drain) before exiting.
//
// Usage:
//
//	nfad [-addr :8642] [-limits length=4096,states=512]
//	     [-tenant-limits free:length=256;paid:length=8192]
//	     [-timeout 30s] [-drain 10s] [-cache-budget 67108864]
//	     [-workers 0]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/instcache"
	"repro/internal/nfad"
)

const (
	exitOK    = 0
	exitUsage = 2
	exitFatal = 1
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nfad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8642", "listen address")
	limitsSpec := fs.String("limits", "", "default admission limits (key=value, comma-separated; keys: length,span,states,budget,batch,bytes)")
	tenantSpec := fs.String("tenant-limits", "", "per-tenant overrides: tenant:limits[;tenant:limits...]")
	timeout := fs.Duration("timeout", 0, "per-request deadline cap (0 = none)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-drain bound on shutdown")
	budget := fs.Int64("cache-budget", instcache.DefaultBudget, "compiled-index cache budget in bytes")
	workers := fs.Int("workers", 0, "per-request engine parallelism cap (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	var limits *admission.Limits
	if *limitsSpec != "" {
		l, err := admission.Parse(*limitsSpec)
		if err != nil {
			fmt.Fprintln(stderr, "nfad: -limits:", err)
			return exitUsage
		}
		limits = l
	}
	tenants, err := parseTenantLimits(*tenantSpec)
	if err != nil {
		fmt.Fprintln(stderr, "nfad: -tenant-limits:", err)
		return exitUsage
	}

	srv := nfad.New(nfad.Config{
		Cache:        instcache.New(*budget),
		Limits:       limits,
		TenantLimits: tenants,
		Timeout:      *timeout,
		Workers:      *workers,
	})
	hs := &http.Server{Addr: *addr, Handler: srv}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(stdout, "nfad: listening on %s\n", *addr)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "nfad:", err)
		return exitFatal
	case <-ctx.Done():
		// Graceful drain: stop accepting, let in-flight requests finish
		// their page (each checkpoints via its own context), then exit.
		fmt.Fprintln(stdout, "nfad: draining")
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(dctx); err != nil {
			fmt.Fprintln(stderr, "nfad: drain:", err)
			return exitFatal
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "nfad:", err)
			return exitFatal
		}
		fmt.Fprintln(stdout, "nfad: drained")
		return exitOK
	}
}

// parseTenantLimits decodes "tenant:limits[;tenant:limits...]" where each
// limits clause uses admission.Parse syntax.
func parseTenantLimits(spec string) (map[string]*admission.Limits, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]*admission.Limits)
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rest, ok := strings.Cut(clause, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("clause %q: want tenant:limits", clause)
		}
		l, err := admission.Parse(rest)
		if err != nil {
			return nil, fmt.Errorf("tenant %q: %w", name, err)
		}
		out[name] = l
	}
	return out, nil
}
