package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/instcache"
	"repro/internal/nfad"
)

// spanHeader carries a traced request's root span id to the mirror.
const spanHeader = "X-Perfbench-Span"

// fleet is a set of in-process HTTP replicas on loopback ports.
type fleet struct {
	urls    []string
	servers []*http.Server
	wg      sync.WaitGroup
	conns   atomic.Int64 // open server-side connections
}

func startFleet(handlers []http.Handler) (*fleet, error) {
	f := &fleet{}
	track := func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			f.conns.Add(1)
		case http.StateClosed, http.StateHijacked:
			f.conns.Add(-1)
		}
	}
	for _, h := range handlers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("starting replica: %w", err)
		}
		hs := &http.Server{Handler: h, ConnState: track}
		f.servers = append(f.servers, hs)
		f.urls = append(f.urls, "http://"+ln.Addr().String())
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
		}()
	}
	return f, nil
}

// stop closes the replicas and waits for their serve loops to return.
func (f *fleet) stop() {
	for _, hs := range f.servers {
		hs.Close()
	}
	f.wg.Wait()
}

// quiesce closes the client's idle connections and waits (up to a second)
// until the replicas have closed their ends, so that a heap reading holds
// the replicas' state and no connection buffers.
func (f *fleet) quiesce(hc *http.Client) {
	hc.CloseIdleConnections()
	for i := 0; i < 1000 && f.conns.Load() > 0; i++ {
		time.Sleep(time.Millisecond)
	}
}

// nfadFleet starts numReplicas shared-nothing nfad servers, each with its
// own compiled-index cache of the given budget (as nfad -cache-budget).
func nfadFleet(budget int64) (*fleet, error) {
	hs := make([]http.Handler, numReplicas)
	for i := range hs {
		hs[i] = nfad.New(nfad.Config{Cache: instcache.New(budget)})
	}
	return startFleet(hs)
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * numClients, DisableCompression: true}}
}

// post sends one JSON body and returns the status and the whole answer.
// span ≥ 0 tags a traced request for the mirror.
func post(ctx context.Context, hc *http.Client, url string, body []byte, span int32) (int, []byte, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if span >= 0 {
		hr.Header.Set(spanHeader, strconv.Itoa(int(span)))
	}
	resp, err := hc.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// warm sends every cold call (with its marshalled body) to every replica,
// one after another.
func warm(ctx context.Context, hc *http.Client, urls []string, calls []*call, bodies [][]byte) error {
	for _, u := range urls {
		for i, c := range calls {
			status, b, err := post(ctx, hc, u+c.path, bodies[i], -1)
			if err != nil {
				return fmt.Errorf("setup %s: %w", c.path, err)
			}
			if status != http.StatusOK {
				return fmt.Errorf("setup %s: HTTP %d: %.200s", c.path, status, b)
			}
		}
	}
	return nil
}

// cacheStats sums the replicas' /v1/stats cache counters.
func cacheStats(ctx context.Context, hc *http.Client, urls []string) (instcache.Stats, error) {
	var sum instcache.Stats
	for _, u := range urls {
		hr, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/v1/stats", nil)
		if err != nil {
			return sum, err
		}
		resp, err := hc.Do(hr)
		if err != nil {
			return sum, fmt.Errorf("stats: %w", err)
		}
		var s nfad.StatsResponse
		err = json.NewDecoder(resp.Body).Decode(&s)
		resp.Body.Close()
		if err != nil {
			return sum, fmt.Errorf("stats: %w", err)
		}
		sum.Hits += s.Cache.Hits
		sum.Misses += s.Cache.Misses
		sum.Builds += s.Cache.Builds
		sum.Evictions += s.Cache.Evictions
		sum.Bytes += s.Cache.Bytes
	}
	return sum, nil
}

// phase is what one timed window of closed-loop traffic measured.
type phase struct {
	lat       []time.Duration // every request's round trip
	attempted int
	// completed counts the requests answered 2xx that passed the checks
	// made on arrival.
	completed int
	failed    int
	words     int
	reqBytes  int64
	respBytes int64
	// estimateReqs counts RelationNL counts and samples: the requests
	// that need an FPRAS estimator.
	estimateReqs int
	wall         time.Duration
	errs         []string // the first few failures, for the report
	// replays are the traced phase's requests with digests of the
	// mirror's answers, compared with nfad after the window.
	replays []replay
}

// replay is one mirrored request to repeat against nfad.
type replay struct {
	c       *call
	replica int
	status  int
	sum     uint64 // maphash of the mirror's answer
}

func (p *phase) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

func (p *phase) merge(q *phase) {
	p.lat = append(p.lat, q.lat...)
	p.attempted += q.attempted
	p.completed += q.completed
	p.words += q.words
	p.reqBytes += q.reqBytes
	p.respBytes += q.respBytes
	p.estimateReqs += q.estimateReqs
	p.replays = append(p.replays, q.replays...)
	p.failed += q.failed
	for _, e := range q.errs {
		if len(p.errs) < 5 {
			p.errs = append(p.errs, e)
		}
	}
}

// driveOpts selects where a timed window sends its requests.
type driveOpts struct {
	targets []string // replica base URLs
	// rec, in the traced phase, records one root span per request and
	// keeps each request for the byte-equality replay (digests under
	// hash).
	rec  *recorder
	hash maphash.Seed
	// tamper rewrites answers before they are checked (self-test only).
	tamper func(path string, body []byte) []byte
}

// drive runs one closed-loop client per stream list for the window: each
// client sends its next stream's next request only after the previous
// answer arrived, cycling through its streams. Requests in flight at the
// deadline complete and count.
func drive(ctx context.Context, hc *http.Client, clients [][]*stream, window time.Duration, o driveOpts) *phase {
	start := time.Now()
	deadline := start.Add(window)
	parts := make([]phase, len(clients))
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(mine []*stream, p *phase) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
				st := mine[k%len(mine)]
				c, replica := st.next()
				body := c.body()
				span := int32(-1)
				if o.rec != nil {
					span = o.rec.begin(-1, -1, "nfad.request")
				}
				t0 := time.Now()
				status, resp, err := post(ctx, hc, o.targets[replica]+c.path, body, span)
				p.lat = append(p.lat, time.Since(t0))
				if o.rec != nil {
					o.rec.end(span, 0)
				}
				p.attempted++
				p.reqBytes += int64(len(body))
				p.respBytes += int64(len(resp))
				if c.ten.nl && c.path != "/v1/enum" {
					p.estimateReqs++
				}
				if err == nil && o.rec != nil {
					p.replays = append(p.replays, replay{c: c, replica: replica, status: status, sum: maphash.Bytes(o.hash, resp)})
				}
				if err == nil && o.tamper != nil {
					resp = o.tamper(c.path, resp)
				}
				words := 0
				if err == nil {
					words, err = st.handle(c, status, resp)
				}
				if err != nil {
					p.fail(err)
					continue
				}
				p.completed++
				p.words += words
			}
		}(clients[i], &parts[i])
	}
	wg.Wait()
	out := &phase{wall: time.Since(start)}
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}

// replayAll repeats the traced phase's requests against nfad, two at a
// time, and requires the same status and the same bytes as the mirror
// gave. It returns the mismatches.
func replayAll(ctx context.Context, hc *http.Client, urls []string, rs []replay, hash maphash.Seed) []error {
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	half := len(rs) / 2
	for _, part := range [][]replay{rs[:half], rs[half:]} {
		wg.Add(1)
		go func(part []replay) {
			defer wg.Done()
			for _, r := range part {
				s, b, err := post(ctx, hc, urls[r.replica]+r.c.path, r.c.body(), -1)
				if err == nil && (s != r.status || maphash.Bytes(hash, b) != r.sum) {
					err = fmt.Errorf("mirror answer differs from nfad's (HTTP %d vs %d) for %s: nfad says %.120q", r.status, s, r.c.path, b)
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}(part)
	}
	wg.Wait()
	return errs
}

// percentiles returns the median and the tail: the highest percentile
// with at least ten samples beyond it, capped at p99 (nearest rank), with
// that percentile. Below 1000 samples the tail is the eleventh-slowest
// request, so the percentile moves smoothly with the sample count instead
// of jumping between fixed steps.
func percentiles(lat []time.Duration) (p50, tail time.Duration, tailPct float64) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	p50 = s[max(int(math.Ceil(0.5*float64(n)))-1, 0)]
	if i := int(math.Ceil(0.99*float64(n)-1e-9)) - 1; n-1-i >= 10 {
		return p50, s[i], 99
	}
	if n < 11 {
		return p50, s[n-1], 100
	}
	return p50, s[n-11], 100 * float64(n-10) / float64(n)
}

// runtimeSample is a snapshot of the process-wide Go runtime counters.
type runtimeSample struct {
	allocBytes      float64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// heapLive forces collections and returns the live heap the last one
// marked. The second cycle empties the sync.Pool victim caches the first
// one filled.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
