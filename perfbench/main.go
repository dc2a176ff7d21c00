// Command perfbench is the repository's serving benchmark: one command
// that drives two in-process nfad replicas over loopback HTTP with one of
// four seeded workloads, checks every answer, and prints the end-to-end
// metrics (--trace 0) or the per-layer breakdown (--trace 1).
//
//	bash perfbench/run.sh --workload ranked --seed 1 --seconds 30 --trace 0
//
// run.sh builds this module from the checkout (build outputs go to
// .bench_build/) and runs it from the repository root. The last line of
// standard output is one JSON object {"correct", "attempted", "failed",
// "metrics"}; the lines before it print every metric by name with its
// unit, and the recorded facts (host, Go version, commit, source digest,
// seed, non-test lines per internal/ and cmd/ package). A failed check
// makes the command exit 1 after printing its result.
//
// # Load shape
//
// Everything runs in one process. The two replicas share nothing: each
// has its own instcache.Cache with the budget nfad -cache-budget would
// set. Two closed-loop clients (the host has 2 vCPUs) each cycle through
// their share of the workload's streams; a client sends its next request
// only after the previous answer arrived, because a paginating client
// cannot ask for page k+1 before it holds page k's token. Each stream
// sends its requests round-robin across the replicas, so every page is a
// cross-replica resume. Deadline churn and 422 probes are left out (where
// a 1 ms deadline lands depends on the scheduler); experiment E21 covers
// those paths. The CLI shares every engine layer with enum-bulk and has
// no row of its own.
//
// # Workloads
//
// The seed is the only source of the tenant automata, of the assignment
// of streams to clients and of the op order. Tenant sizes follow a fixed
// ladder, so every seed sees the same mix of sizes.
//
// BENCHMARK.json lists ranked and nl-mixed, which between them reach every
// layer below. enum-pages and enum-bulk are defined, self-tested and run
// with --workload, but not listed: on the 2-vCPU host the benchmark was
// tuned on, which neighbours slow by 20–40% for minutes at a time, the
// latency_tail_ms of ten seeds spread (IQR/median) 0.48–0.78 on
// enum-pages and 0.42–0.65 on enum-bulk in 15 s runs, beyond the largest
// bound a metric may have (0.25), because a run's p99 there is set by how
// many of its pages the host stalls. perfbench/records/baseline.json
// holds those runs.
//
//   - enum-pages: 64 tenant DFAs (32–256 states, 2–4 symbols, length 24),
//     8-word serial /v1/enum pages. The common paginating client: a warm
//     page mostly re-derives what the server has already seen (JSON
//     decode, automata.UnmarshalString, core.New, and the unroll.Build
//     inside enumerate.NewUFAFrom). The drain is 8 words, so work on
//     decoding, preparing or resuming shows here and not in enum-bulk.
//   - enum-bulk: 8 tenant DFAs (32–128 states) at length 32, 4096-word
//     pages; the languages are far larger than a run drains. Delay per
//     word: enumerate Next, FormatWord and the JSON encode do most of the
//     work and preparation is under a tenth of a page. The mirror image
//     of enum-pages.
//   - ranked: 256 tenant DFAs (32–128 states, lengths 16–32) picked with
//     Zipf skew (s = 1.2); ops /v1/sample (k=16), /v1/unrank followed by
//     /v1/rank of its word, and /v1/count, a quarter of the requests each,
//     half of them in the lo/hi range form. The equal shares are a fixed
//     choice, not observed traffic (no client op mix is on record). Each
//     replica's cache budget is 0.2 of the working set's estimated index
//     bytes; the exponent and the budget share are set only so that the
//     hit ratio lands in 0.6–0.8 (instcache.hit_ratio). The only workload
//     that goes through instcache: index builds (unroll, countdag,
//     lengthrange sweeps), evictions, singleflight waits and descents show
//     here, on a working set larger than the cache.
//   - nl-mixed: 8 ambiguous binary NFAs (4–6 states, lengths 8–9,
//     request delta 0.5, fixed request seed); each stream cycles through
//     one count, one 4-word sample and one 64-word enum page. The only
//     RelationNL traffic: without it fpras (rebuilt on every count and
//     sample today) and the flashlight enumerator go unmeasured.
//
// # End-to-end metrics (--trace 0)
//
//   - setup_s: replica start plus one cold request per distinct
//     working-set key per replica, before timing starts; the median of at
//     least three set-ups, repeated until three seconds of set-up have
//     passed (at most forty). The same requests at every commit, so a
//     caching change moves no work into or out of it.
//   - req_per_s, words_per_s: completed requests (a 2xx answer that passed
//     the checks made on arrival), and witnesses delivered (enumerated
//     plus sampled plus unranked), per second of the window.
//   - latency_p50_ms, latency_tail_ms: the median round trip and the
//     highest percentile with at least 10 samples beyond it, capped at
//     p99 (p99 from 1000 requests on, the eleventh-slowest request below);
//     the summary prints which percentile, and the count.
//   - heap_live_mb: the replicas' live heap at the end of the window: the
//     live heap after forced GCs, with the client's retained answers
//     released and its connections closed, minus the same reading once
//     the replicas are stopped and released. (A reading taken before the
//     replicas start carries the client's own garbage into the difference.)
//   - fail_ratio: failed over attempted requests; a non-2xx answer and a
//     failed output check both count. It is printed with the others, and
//     the JSON carries it as the failed and attempted counts.
//
// # Checks
//
// Every enum transcript equals the tenant's own enumeration
// (core.Instance.Witnesses order), sampled words are members, rank of an
// unranked word is the rank, RelationUL counts equal exact.CountUFA or
// TotalRange, RelationNL counts fall within (1±δ) of exact.CountNFA.
// References are computed outside the timed window.
//
// # Per-layer metrics (--trace 1)
//
// A trace-1 run first repeats the untraced phase, then replays the same
// requests through a mirror of the nfad handler built only from the
// layers' public calls (mirror.go), recording a span around each call.
// Every mirrored answer must be byte-equal to nfad's answer to the same
// request. <module>.share is a module's self time (span duration minus
// what its child spans cover) over the traced request time, and
// nfad.residual_share is what no span explains (transport and handler
// glue); the shares sum to 1. automata.trim_canon_us, automata.unamb_us
// and the session-side unroll.build are side calls timed on the same
// input next to core.New and the enumerate constructors, which run them
// internally; their time moves out of core's and enumerate's self time.
// Metrics marked untraced come from the untraced phase. A metric reads 0
// on a workload that never reaches its layer.
//
// Which per-layer metric should move which end-to-end metric, on which
// workload, and where it must stay flat:
//
//	module       metrics                                    moves                              on                   flat on
//	nfad         decode_us, req_kb; encode_us,              latency_p50_ms; words_per_s        enum-pages; enum-bulk nl-mixed
//	             resp_bytes_per_word
//	automata     parse_us, trim_canon_us, unamb_us          latency_p50_ms, req_per_s          enum-pages, ranked   enum-bulk
//	core         new_us                                     latency_p50_ms, req_per_s          enum-pages, ranked   enum-bulk
//	enumerate    resume_us; word_ns, token_us               latency_p50_ms; words_per_s        enum-pages; enum-bulk ranked
//	unroll       build_us                                   latency_p50_ms; setup_s,           enum-pages; ranked   nl-mixed
//	                                                        latency_tail_ms
//	instcache    key_us; hit_ratio, wait_ratio,             latency_tail_ms, req_per_s;        ranked               enum-pages
//	             builds_per_kreq, evictions_per_kreq,       est_mb → heap_live_mb
//	             est_mb (untraced, /v1/stats deltas)
//	countdag     build_us; unrank_us, rank_us               latency_tail_ms, setup_s;          ranked               enum-bulk
//	                                                        latency_p50_ms
//	lengthrange  build_us; unrank_us, draw_ns               latency_tail_ms, setup_s;          ranked               enum-bulk
//	                                                        latency_p50_ms
//	sample       draw_ns                                    latency_p50_ms                     ranked               enum-pages
//	exact        count_us (CountUFA on every UL count)      latency_p50_ms                     ranked               enum-pages
//	fpras        build_ms, builds_per_req, draw_ms          req_per_s, latency_p50_ms          nl-mixed             every UL workload
//	go           alloc_kb_per_req, gc_cpu_share (untraced,  words_per_s, latency_tail_ms       enum-bulk            nl-mixed
//	             runtime/metrics)
//
// Of the workloads BENCHMARK.json lists, ranked shows nfad, automata, core
// and unroll too, and nl-mixed shows enumerate (the RelationNL session);
// the enum-pages and enum-bulk cells are where those modules should move
// most, once a steadier host lets the enum workloads be listed.
//
// trace.req_per_s is the traced window's rate next to
// trace.untraced_req_per_s from the same run; their difference is the
// tracing overhead. The byte-equality replays to nfad run after the
// traced window. The spans are written to .bench_build/perfbench/ when
// the run ends.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/instcache"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload  string
	seed      int64
	window    time.Duration
	trace     bool
	tiny      bool // self-test sizes
	setupReps int
	setupTime time.Duration // set up again until this much set-up has passed
	root      string        // repository root (facts)
	spanDir   string        // where the traced run writes its spans ("" = nowhere)
	// tamper rewrites answers before they are checked (self-test only).
	tamper func(path string, body []byte) []byte
}

// A run sets the fleet up at least setupReps times, and again until
// setupTime of set-up has passed, at most maxSetupReps times; setup_s is
// the median. Cheap set-ups are repeated more, so that a short stall of
// the host moves one sample and not the median; the costly ones (ranked,
// nl-mixed) stop at three, which keeps a run well under the time limit.
const (
	setupReps    = 3
	setupTime    = 3 * time.Second
	maxSetupReps = 40
)

// runDeadline bounds a whole run, so a hung request fails the run instead
// of outliving the caller's limit: 40 s for the set-ups and the
// references, plus four windows (a traced run times two windows, then
// replays the traced one to nfad). A 30 s window gets 160 s.
func runDeadline(window time.Duration) time.Duration { return 40*time.Second + 4*window }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", fmt.Sprintf("workload to run (%v)", workloadNames))
	seed := fs.Int64("seed", 1, "workload seed: the only source of inputs")
	seconds := fs.Int("seconds", 10, "length of the timed window, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	spanDir := fs.String("span-dir", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*trace != 0 && *trace != 1) || *seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want --trace 0|1, --seconds ≥ 1 and no arguments")
		return 2
	}
	cfg := config{
		workload:  *workload,
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		setupReps: setupReps,
		setupTime: setupTime,
		root:      ".",
		spanDir:   *spanDir,
	}
	if cfg.trace {
		cfg.setupReps, cfg.setupTime = 1, 0 // a traced run reports no setup_s
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline(cfg.window))
	defer cancel()
	res, err := run(ctx, cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one invocation and prints the human-readable report.
func run(ctx context.Context, cfg config, stdout, stderr io.Writer) (*result, error) {
	sp, err := buildSpec(cfg.workload, cfg.seed, cfg.tiny)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d window=%s trace=%v tenants=%d budget=%d\n",
		sp.name, sp.seed, cfg.window, cfg.trace, len(sp.tenants), sp.budget)
	fb, err := json.Marshal(collectFacts(cfg.root, cfg.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "facts: %s\n", fb)

	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	u, fl, err := untracedPhase(ctx, hc, sp, cfg)
	if err != nil {
		return nil, err
	}
	if fl != nil {
		defer fl.stop()
	}
	res := &result{Attempted: u.ph.attempted, Failed: u.ph.failed}
	errs := u.ph.errs
	var ms []named
	if !cfg.trace {
		ms = endToEnd(u)
	} else {
		t, b, err := tracedPhase(ctx, hc, sp, fl.urls, cfg)
		if err != nil {
			return nil, err
		}
		res.Attempted += t.attempted
		res.Failed += t.failed
		errs = append(errs, t.errs...)
		ms = perLayer(u, t, b)
	}
	res.Correct = res.Failed == 0
	res.Metrics = make(map[string]metric, len(ms))
	for _, m := range ms {
		fmt.Fprintf(stdout, "%-34s %14.6g %-8s %s\n", m.name, m.Value, m.Unit, m.note)
		res.Metrics[m.name] = m.metric
	}
	// fail_ratio is 0 whenever the run is correct, so the JSON carries it
	// as the attempted and failed counts instead of as a metric.
	fmt.Fprintf(stdout, "%-34s %14.6g %-8s %d failed of %d attempted\n", "fail_ratio", ratio(res.Failed, res.Attempted), "ratio", res.Failed, res.Attempted)
	for _, e := range errs {
		fmt.Fprintln(stderr, "perfbench: failed:", e)
	}
	return res, nil
}

// named is a metric with its name and an optional note for the report.
type named struct {
	name string
	metric
	note string
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// untracedRun is what the untraced phase measured.
type untracedRun struct {
	setup   []float64 // seconds, one per set-up
	ph      *phase
	n       int // requests timed
	p50     time.Duration
	tail    time.Duration
	tailPct float64
	heapMiB float64
	cache   instcache.Stats // window deltas; Bytes is resident at the end
	rt      runtimeSample   // window deltas
}

// untracedPhase sets the fleet up cfg.setupReps times (and again until
// cfg.setupTime of set-up has passed), then runs the timed window against
// the last fleet and checks the answers. An untraced run then reads the
// replicas' heap and stops the fleet; a traced run gets the fleet back
// running (its answers are the reference) and stops it itself.
func untracedPhase(ctx context.Context, hc *http.Client, sp *spec, cfg config) (*untracedRun, *fleet, error) {
	cold, bodies := sp.coldCalls()
	u := &untracedRun{}
	var fl *fleet
	var spent time.Duration
	for rep := 0; rep < max(cfg.setupReps, 1) || (spent < cfg.setupTime && rep < maxSetupReps); rep++ {
		if fl != nil {
			fl.stop()
			hc.CloseIdleConnections()
		}
		t0 := time.Now()
		f, err := nfadFleet(sp.budget)
		if err != nil {
			return nil, nil, err
		}
		fl = f
		if err := warm(ctx, hc, fl.urls, cold, bodies); err != nil {
			fl.stop()
			return nil, nil, err
		}
		took := time.Since(t0)
		spent += took
		u.setup = append(u.setup, took.Seconds())
	}
	fail := func(err error) (*untracedRun, *fleet, error) {
		fl.stop()
		return nil, nil, err
	}
	s0, err := cacheStats(ctx, hc, fl.urls)
	if err != nil {
		return fail(err)
	}
	runtime.GC()
	rt0 := readRuntime()
	clients := sp.newStreams()
	ph := drive(ctx, hc, clients, cfg.window, driveOpts{targets: fl.urls, tamper: cfg.tamper})
	rt1 := readRuntime()
	s1, err := cacheStats(ctx, hc, fl.urls)
	if err != nil {
		return fail(err)
	}
	failed, errs := checkStreams(sp, clients)
	ph.failed += failed
	ph.errs = append(ph.errs, errs...)
	u.ph, u.n = ph, len(ph.lat)
	u.p50, u.tail, u.tailPct = percentiles(ph.lat)
	ph.lat = nil // with the streams, which are dead from here on: the retained answers are released
	if !cfg.trace {
		// The replicas' live heap: the reading with the fleet running (and
		// its connections closed), minus the reading once the fleet is
		// stopped and released. Both are taken with the same client-side
		// state, so the difference is exactly what the replicas retain.
		fl.quiesce(hc)
		with := heapLive()
		fl.stop()
		fl = nil
		u.heapMiB = (float64(with) - float64(heapLive())) / (1 << 20)
	}
	u.cache = instcache.Stats{
		Hits:      s1.Hits - s0.Hits,
		Misses:    s1.Misses - s0.Misses,
		Builds:    s1.Builds - s0.Builds,
		Evictions: s1.Evictions - s0.Evictions,
		Bytes:     s1.Bytes,
	}
	u.rt = runtimeSample{rt1.allocBytes - rt0.allocBytes, rt1.gcCPU - rt0.gcCPU, rt1.totalCPU - rt0.totalCPU}
	return u, fl, nil
}

// tracedPhase replays the workload's requests through two mirror replicas
// (each with its own cache of the same budget, warmed by the same cold
// requests) and, after the window, repeats every request against the
// running nfad fleet: the answers must be byte-equal.
func tracedPhase(ctx context.Context, hc *http.Client, sp *spec, nfadURLs []string, cfg config) (*phase, *breakdown, error) {
	rec := newRecorder()
	hs := make([]http.Handler, numReplicas)
	for i := range hs {
		hs[i] = &mirror{cache: instcache.New(sp.budget), rec: rec}
	}
	mf, err := startFleet(hs)
	if err != nil {
		return nil, nil, err
	}
	defer mf.stop()
	cold, bodies := sp.coldCalls()
	if err := warm(ctx, hc, mf.urls, cold, bodies); err != nil {
		return nil, nil, err
	}
	clients := sp.newStreams()
	ph := drive(ctx, hc, clients, cfg.window, driveOpts{targets: mf.urls, rec: rec, hash: sp.hash, tamper: cfg.tamper})
	failed, errs := checkStreams(sp, clients)
	ph.failed += failed
	ph.errs = append(ph.errs, errs...)
	for _, err := range replayAll(ctx, hc, nfadURLs, ph.replays, sp.hash) {
		ph.fail(err)
	}
	ph.replays = nil
	if cfg.spanDir != "" {
		if err := os.MkdirAll(cfg.spanDir, 0o755); err != nil {
			return nil, nil, err
		}
		if err := rec.write(filepath.Join(cfg.spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, sp.seed))); err != nil {
			return nil, nil, err
		}
	}
	return ph, rec.analyze(), nil
}

// endToEnd are the BENCHMARK.json end_to_end metrics.
func endToEnd(u *untracedRun) []named {
	wall := u.ph.wall.Seconds()
	return []named{
		{name: "setup_s", metric: metric{median(u.setup), "s"}, note: fmt.Sprintf("median of %d set-ups", len(u.setup))},
		{name: "req_per_s", metric: metric{float64(u.ph.completed) / wall, "1/s"}},
		{name: "words_per_s", metric: metric{float64(u.ph.words) / wall, "1/s"}},
		{name: "latency_p50_ms", metric: metric{ms(u.p50), "ms"}},
		{name: "latency_tail_ms", metric: metric{ms(u.tail), "ms"}, note: fmt.Sprintf("p%g of %d requests", u.tailPct, u.n)},
		{name: "heap_live_mb", metric: metric{u.heapMiB, "MiB"}},
	}
}

// perLayer are the BENCHMARK.json per_layer metrics.
func perLayer(u *untracedRun, t *phase, b *breakdown) []named {
	us := time.Microsecond
	c := u.cache
	lookups := int(c.Hits + c.Misses)
	m := func(name string, v float64, unit string) named { return named{name: name, metric: metric{v, unit}} }
	return []named{
		m("nfad.decode_us", b.mean("nfad.decode", us), "us/req"),
		m("nfad.req_kb", float64(t.reqBytes)/float64(max(t.attempted, 1))/1024, "KiB/req"),
		m("nfad.encode_us", b.mean("nfad.encode", us), "us/req"),
		m("nfad.resp_bytes_per_word", ratio(int(t.respBytes), t.words), "B/word"),
		m("nfad.share", b.share("nfad"), "ratio"),
		m("nfad.residual_share", b.share("residual"), "ratio"),
		m("automata.parse_us", b.mean("automata.parse", us), "us/call"),
		m("automata.trim_canon_us", b.mean("automata.trim_canon", us), "us/call"),
		m("automata.unamb_us", b.mean("automata.unamb", us), "us/call"),
		m("automata.share", b.share("automata"), "ratio"),
		m("core.new_us", b.mean("core.new", us), "us/call"),
		m("core.share", b.share("core"), "ratio"),
		m("enumerate.resume_us", b.mean("enumerate.open", us), "us/call"),
		m("enumerate.word_ns", b.perWord("enumerate.next"), "ns/word"),
		m("enumerate.token_us", b.mean("enumerate.token", us), "us/call"),
		m("enumerate.share", b.share("enumerate"), "ratio"),
		m("unroll.build_us", b.mean("unroll.build", us), "us/call"),
		m("unroll.share", b.share("unroll"), "ratio"),
		m("instcache.key_us", b.mean("instcache.key", us), "us/call"),
		m("instcache.hit_ratio", ratio(int(c.Hits), lookups), "ratio"),
		m("instcache.wait_ratio", ratio(int(c.Misses)-int(c.Builds), lookups), "ratio"),
		m("instcache.builds_per_kreq", 1000*ratio(int(c.Builds), u.ph.attempted), "1/kreq"),
		m("instcache.evictions_per_kreq", 1000*ratio(int(c.Evictions), u.ph.attempted), "1/kreq"),
		m("instcache.est_mb", float64(c.Bytes)/(1<<20), "MiB"),
		m("instcache.share", b.share("instcache"), "ratio"),
		m("countdag.build_us", b.mean("countdag.build", us), "us/call"),
		m("countdag.unrank_us", b.mean("countdag.unrank", us), "us/call"),
		m("countdag.rank_us", b.mean("countdag.rank", us), "us/call"),
		m("countdag.share", b.share("countdag"), "ratio"),
		m("lengthrange.build_us", b.mean("lengthrange.build", us), "us/call"),
		m("lengthrange.unrank_us", b.mean("lengthrange.unrank", us), "us/call"),
		m("lengthrange.draw_ns", b.perWord("lengthrange.draw"), "ns/word"),
		m("lengthrange.share", b.share("lengthrange"), "ratio"),
		m("sample.draw_ns", b.perWord("sample.draw"), "ns/word"),
		m("sample.share", b.share("sample"), "ratio"),
		m("exact.count_us", b.mean("exact.count", us), "us/call"),
		m("exact.share", b.share("exact"), "ratio"),
		m("fpras.build_ms", b.mean("fpras.build", time.Millisecond), "ms/call"),
		m("fpras.builds_per_req", ratio(b.calls["fpras.build"], t.estimateReqs), "1/req"),
		m("fpras.draw_ms", b.mean("fpras.draw", time.Millisecond), "ms/call"),
		m("fpras.share", b.share("fpras"), "ratio"),
		m("go.alloc_kb_per_req", u.rt.allocBytes/float64(max(u.ph.attempted, 1))/1024, "KiB/req"),
		m("go.gc_cpu_share", u.rt.gcCPU/max(u.rt.totalCPU, 1e-9), "ratio"),
		m("trace.req_per_s", float64(t.completed)/t.wall.Seconds(), "1/s"),
		m("trace.untraced_req_per_s", float64(u.ph.completed)/u.ph.wall.Seconds(), "1/s"),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
