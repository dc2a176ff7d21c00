// Package loadgen drives an nfad serving fleet with concurrent
// paginating enumeration streams and measures the service-level
// quantities the paper's incremental-delay framing predicts: queries per
// second, time-to-first-word (the service-side face of constant delay),
// page latency, and memory per cached tenant.
//
// Each stream owns one tenant automaton and pages through /v1/enum with
// el1: resume tokens, sending every page to the next target in
// round-robin order — so a multi-target run exercises cross-replica
// resume on every page boundary. A configurable fraction of pages
// carries a deliberately tiny deadline (cancel/timeout churn): those
// requests come back 408 with a checkpoint token and the partial page in
// the error body, and the stream adopts both and keeps going — the
// final transcripts must still be prefixes of one another per tenant,
// which Run verifies when asked. Streams can also lead with an
// over-limit probe to observe per-tenant admission rejections (422)
// under load, before any length-sized precompute.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/automata"
	"repro/internal/nfad"
)

// Config shapes a load run. Zero fields take the documented defaults.
type Config struct {
	// Targets are the replica base URLs (e.g. "http://127.0.0.1:8642");
	// a stream sends page k to Targets[k % len(Targets)].
	Targets []string
	// Streams is the number of concurrent paginating streams.
	Streams int
	// Pages bounds the successful pages each stream fetches (a stream
	// also stops when the server says done).
	Pages int
	// PageSize is the enum limit per page (0 = 8).
	PageSize int
	// Tenants is the number of distinct tenant automata, cycled across
	// streams; each distinct automaton is one compiled-index cache entry
	// on the server. 0 = 4.
	Tenants int
	// States and Length size the per-tenant random DFAs and the witness
	// length requested (0 = 12 states, length 16).
	States, Length int
	// CancelFrac is the fraction of page requests sent with
	// CancelTimeoutMS as their deadline — the cancel/timeout churn.
	CancelFrac float64
	// CancelTimeoutMS is the churn deadline in milliseconds (0 = 1).
	CancelTimeoutMS int
	// ChurnLimit is the page limit churn requests ask for (0 = 1<<20).
	// It must be large enough that the drain cannot finish inside the
	// churn deadline — a page smaller than one delivery batch checks its
	// context once, before any time has passed, and never observes the
	// deadline; a page the server can drain in under the deadline
	// succeeds instead of checkpointing.
	ChurnLimit int
	// RejectEvery makes every k-th stream lead with an over-limit probe
	// (witness length RejectLength) that the server's admission policy
	// must 422. Requires the target servers to enforce a MaxLength below
	// RejectLength — an unlimited server would accept the length-sized
	// work instead. 0 disables probes.
	RejectEvery int
	// RejectLength is the over-limit probe length (0 = 1<<20).
	RejectLength int
	// Seed drives every random choice (tenant automata, churn placement).
	Seed int64
	// Verify retains per-stream transcripts and checks that all streams
	// of one tenant saw prefix-consistent word sequences — the bitwise
	// cross-replica/churn-resume invariant.
	Verify bool
	// Client overrides the HTTP client (nil = a pooled client sized for
	// Streams concurrent connections).
	Client *http.Client
}

// Metrics is what a Run measured.
type Metrics struct {
	Streams     int           `json:"streams"`
	Requests    int64         `json:"requests"`
	Pages       int64         `json:"pages"`
	Words       int64         `json:"words"`
	Checkpoints int64         `json:"checkpoints"` // 408s (cancel/timeout churn)
	Resumes     int64         `json:"resumes"`     // continuations after a 408
	Rejections  int64         `json:"rejections"`  // 422s from over-limit probes
	Errors      int64         `json:"errors"`      // anything else non-2xx
	Elapsed     time.Duration `json:"elapsed_ns"`
	QPS         float64       `json:"qps"`
	TTFWp50     time.Duration `json:"ttfw_p50_ns"` // stream start → first page decoded
	TTFWp99     time.Duration `json:"ttfw_p99_ns"`
	PageP50     time.Duration `json:"page_p50_ns"`
	PageP99     time.Duration `json:"page_p99_ns"`
	// CacheBytes/CacheEntries are Targets[0]'s /v1/stats view after the
	// run; BytesPerTenant = CacheBytes / CacheEntries.
	CacheBytes     int64   `json:"cache_bytes"`
	CacheEntries   int64   `json:"cache_entries"`
	BytesPerTenant float64 `json:"bytes_per_tenant"`
	// ServerRejections is the fleet-side 422 counter (sum over targets),
	// cross-checking client-observed Rejections.
	ServerRejections uint64 `json:"server_rejections"`
	// Transcripts holds each tenant's longest observed word sequence
	// (Verify runs only) so a harness can replay it against a reference
	// enumeration.
	Transcripts map[int][]string `json:"-"`
}

// TenantAutomata builds the deterministic per-tenant instance set a Run
// with the same (tenants, states, seed) uses — exported so a harness can
// compute reference transcripts for the same automata.
func TenantAutomata(tenants, states int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, tenants)
	for i := range out {
		out[i] = automata.MarshalString(automata.RandomDFA(rng, automata.Binary(), states, 0.5))
	}
	return out
}

// Run drives the configured load and blocks until every stream finishes
// or ctx is cancelled. It returns metrics even on partial runs; the error
// reports verification failures or a dead fleet, not individual request
// churn (that is what the counters are for).
func Run(ctx context.Context, cfg Config) (*Metrics, error) {
	if len(cfg.Targets) == 0 {
		return nil, errors.New("loadgen: no targets")
	}
	if cfg.Streams <= 0 {
		cfg.Streams = 1
	}
	if cfg.Pages <= 0 {
		cfg.Pages = 1
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 8
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 4
	}
	if cfg.States <= 0 {
		cfg.States = 12
	}
	if cfg.Length <= 0 {
		cfg.Length = 16
	}
	if cfg.CancelTimeoutMS <= 0 {
		cfg.CancelTimeoutMS = 1
	}
	if cfg.ChurnLimit <= 0 {
		cfg.ChurnLimit = 1 << 20
	}
	if cfg.RejectLength <= 0 {
		cfg.RejectLength = 1 << 20
	}
	client := cfg.Client
	if client == nil {
		// The default transport keeps 2 idle conns per host: at 1k
		// concurrent streams that thrashes connection setup, so size the
		// pool to the fleet.
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        cfg.Streams + 16,
			MaxIdleConnsPerHost: cfg.Streams + 16,
		}}
	}

	tenants := TenantAutomata(cfg.Tenants, cfg.States, cfg.Seed)
	m := &Metrics{Streams: cfg.Streams}
	var (
		mu          sync.Mutex
		ttfw        []time.Duration
		pageLat     []time.Duration
		transcripts = make(map[int][][]string) // tenant → per-stream words
	)
	var requests, pages, words, checkpoints, resumes, rejections, errs atomic.Int64

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Streams; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed ^ int64(id)*0x9e3779b9))
			tenant := id % cfg.Tenants
			st := &stream{
				client:  client,
				targets: cfg.Targets,
				tenant:  fmt.Sprintf("t%03d", tenant),
				body:    tenants[tenant],
				length:  cfg.Length,
			}

			if cfg.RejectEvery > 0 && id%cfg.RejectEvery == 0 {
				code, _, err := st.post(ctx, "/v1/enum", nfad.Request{
					Automaton: st.body, N: &cfg.RejectLength, Limit: 1,
				})
				requests.Add(1)
				switch {
				case err != nil || code != http.StatusUnprocessableEntity:
					errs.Add(1)
				default:
					rejections.Add(1)
				}
			}

			var got []string
			cursor := ""
			first := true
			streamStart := time.Now()
			for fetched := 0; fetched < cfg.Pages; {
				if ctx.Err() != nil {
					return
				}
				// N rides on every page: a serial resume token is validated
				// against the instance length (fingerprint-before-precompute),
				// so the resume request must restate it.
				req := nfad.Request{Automaton: st.body, N: &cfg.Length, Limit: cfg.PageSize, Cursor: cursor}
				churn := rng.Float64() < cfg.CancelFrac
				if churn {
					req.TimeoutMS = cfg.CancelTimeoutMS
					req.Limit = cfg.ChurnLimit
				}
				pageStart := time.Now()
				code, body, err := st.post(ctx, "/v1/enum", req)
				requests.Add(1)
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					errs.Add(1)
					continue
				}
				switch code {
				case http.StatusOK:
					var resp nfad.Response
					if err := json.Unmarshal(body, &resp); err != nil {
						errs.Add(1)
						continue
					}
					lat := time.Since(pageStart)
					mu.Lock()
					pageLat = append(pageLat, lat)
					if first {
						ttfw = append(ttfw, time.Since(streamStart))
					}
					mu.Unlock()
					first = false
					got = append(got, resp.Words...)
					words.Add(int64(len(resp.Words)))
					pages.Add(1)
					fetched++
					if resp.Done {
						fetched = cfg.Pages
					}
					cursor = resp.Token
				case http.StatusRequestTimeout:
					// Churn landed: adopt the checkpoint (token + partial
					// page) when the deadline hit mid-stream; when it hit
					// before the session opened there is no token and the
					// stream retries from its last good cursor.
					checkpoints.Add(1)
					var eb nfad.ErrorBody
					if err := json.Unmarshal(body, &eb); err != nil {
						errs.Add(1)
						continue
					}
					got = append(got, eb.Words...)
					words.Add(int64(len(eb.Words)))
					if eb.Token != "" {
						cursor = eb.Token
					}
					resumes.Add(1)
				default:
					errs.Add(1)
				}
			}

			// One ranked-access request per stream per replica pulls the
			// tenant's compiled index through every cache, so each
			// replica's /v1/stats shows one entry per tenant afterwards.
			// UL enum pages fill the same [n, n] entry themselves; the
			// sample only builds on a replica that served none of the
			// stream's pages.
			for _, target := range cfg.Targets {
				code, _, err := st.postTo(ctx, target, "/v1/sample", nfad.Request{
					Automaton: st.body, N: &cfg.Length, Samples: 1, Seed: cfg.Seed,
				})
				requests.Add(1)
				if err != nil || code != http.StatusOK {
					if ctx.Err() == nil {
						errs.Add(1)
					}
				}
			}

			if cfg.Verify {
				mu.Lock()
				transcripts[tenant] = append(transcripts[tenant], got)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if cfg.Client == nil {
		// The pooled client is ours: drop its keepalive connections so a
		// load run leaves no goroutines behind (leakcheck-clean harnesses).
		defer client.CloseIdleConnections()
	}

	m.Requests = requests.Load()
	m.Pages = pages.Load()
	m.Words = words.Load()
	m.Checkpoints = checkpoints.Load()
	m.Resumes = resumes.Load()
	m.Rejections = rejections.Load()
	m.Errors = errs.Load()
	m.Elapsed = time.Since(start)
	if s := m.Elapsed.Seconds(); s > 0 {
		m.QPS = float64(m.Requests) / s
	}
	m.TTFWp50, m.TTFWp99 = percentiles(ttfw)
	m.PageP50, m.PageP99 = percentiles(pageLat)

	if err := fleetStats(ctx, client, cfg.Targets, m); err != nil {
		return m, err
	}
	if cfg.Verify {
		if err := verifyTranscripts(transcripts); err != nil {
			return m, err
		}
		m.Transcripts = make(map[int][]string, len(transcripts))
		for tenant, streams := range transcripts {
			longest := 0
			for i, words := range streams {
				if len(words) > len(streams[longest]) {
					longest = i
				}
			}
			m.Transcripts[tenant] = streams[longest]
		}
	}
	return m, nil
}

// stream is one paginating client.
type stream struct {
	client  *http.Client
	targets []string
	tenant  string
	body    string
	length  int
	page    int
}

// post sends one JSON request to the stream's next round-robin target.
func (st *stream) post(ctx context.Context, path string, req nfad.Request) (int, []byte, error) {
	target := st.targets[st.page%len(st.targets)]
	st.page++
	return st.postTo(ctx, target, path, req)
}

// postTo sends one JSON request to a specific target.
func (st *stream) postTo(ctx context.Context, target, path string, req nfad.Request) (int, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, target+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Tenant", st.tenant)
	resp, err := st.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// fleetStats folds every target's /v1/stats into the metrics: cache
// accounting from the first target (each replica caches independently;
// one replica's view is the per-replica cost), rejections fleet-wide.
func fleetStats(ctx context.Context, client *http.Client, targets []string, m *Metrics) error {
	for i, target := range targets {
		hr, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/v1/stats", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(hr)
		if err != nil {
			return fmt.Errorf("loadgen: stats from %s: %w", target, err)
		}
		var stats nfad.StatsResponse
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("loadgen: stats from %s: %w", target, err)
		}
		m.ServerRejections += stats.Rejections
		if i == 0 {
			m.CacheBytes = stats.Cache.Bytes
			m.CacheEntries = int64(stats.Cache.Entries)
			if m.CacheEntries > 0 {
				m.BytesPerTenant = float64(m.CacheBytes) / float64(m.CacheEntries)
			}
		}
	}
	return nil
}

// verifyTranscripts asserts every stream of a tenant saw a transcript
// that is a prefix of the tenant's longest one: churn and cross-replica
// hops may end streams at different depths, but never reorder, drop, or
// duplicate a word.
func verifyTranscripts(transcripts map[int][][]string) error {
	for tenant, streams := range transcripts {
		longest := 0
		for i, words := range streams {
			if len(words) > len(streams[longest]) {
				longest = i
			}
		}
		ref := streams[longest]
		for i, words := range streams {
			for j, w := range words {
				if ref[j] != w {
					return fmt.Errorf("loadgen: tenant %d stream %d diverges at word %d: %q vs %q",
						tenant, i, j, w, ref[j])
				}
			}
		}
	}
	return nil
}

// percentiles returns the p50 and p99 of ds (zeros when empty).
func percentiles(ds []time.Duration) (p50, p99 time.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(ds)-1))
		return ds[i]
	}
	return at(0.50), at(0.99)
}
