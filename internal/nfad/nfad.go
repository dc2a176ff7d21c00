// Package nfad implements the enumeration-as-a-service tier: an HTTP
// (net/http, JSON) server in front of internal/core where clients POST an
// automaton instance and page through count/enum/sample/rank/unrank
// answers via el1: resume tokens. The server is stateless by
// construction — a resume token is a self-contained fingerprinted cursor
// (see internal/enumerate), so any replica can resume any client's
// stream and two shared-nothing replicas alternating pages produce a
// transcript bitwise identical to one uninterrupted enumeration.
//
// The request lifecycle wires the contracts PRs 8–9 prepared:
//
//   - Admission: every request resolves a per-tenant admission.Limits
//     (the X-Tenant header selects Config.TenantLimits, falling back to
//     Config.Limits) that core enforces BEFORE any length-sized
//     precomputation; a rejection surfaces as HTTP 422 with the
//     admission error text.
//   - Cancellation: the request context (bounded by Config.Timeout and
//     the request's own timeout_ms, whichever is tighter) cancels the
//     session cooperatively at delivery-batch boundaries; a cancelled or
//     timed-out enumeration responds 408 with its checkpoint token in
//     the error body — cancel is a checkpoint, never corruption, and the
//     token resumes bitwise where the deadline landed.
//   - Caching: one process-wide instcache.Cache (Config.Cache) is shared
//     across all tenants, so automata with one normal form (the same
//     automaton, or relabellings of one DFA) resolve to one compiled
//     index regardless of who posts them; /v1/stats exposes the cache
//     counters plus per-entry accounting for memory-per-tenant tracking.
//
// See cmd/nfad for the full HTTP API reference and the serving binary
// (graceful drain on SIGTERM), and internal/loadgen + experiment E21 for
// the load harness that measures qps / p99 time-to-first-word / memory
// per cached tenant at 1k+ concurrent paginating streams.
package nfad

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/instcache"
)

// DefaultPageLimit caps an enum page when the request does not set one:
// an unbounded default would let a single request stream an exponential
// language through one response body.
const DefaultPageLimit = 100

// DefaultMaxBodyBytes bounds a request body (the automaton text format
// dominates) before JSON decoding sizes anything off it.
const DefaultMaxBodyBytes = 4 << 20

// Config tunes a Server. The zero value serves with a private cache, no
// admission policy, no deadline, and the default body cap.
type Config struct {
	// Cache is the process-wide compiled-index cache shared across every
	// tenant's requests (nil = a private cache with
	// instcache.DefaultBudget). Relabellings of one DFA posted by
	// different tenants resolve to the same entry; the byte budget bounds
	// resident index memory.
	Cache *instcache.Cache
	// Limits is the default per-request admission policy (nil = none).
	Limits *admission.Limits
	// TenantLimits overrides Limits per X-Tenant header value.
	TenantLimits map[string]*admission.Limits
	// Timeout caps every request's deadline; a request's own timeout_ms
	// may only tighten it. 0 = no server-side deadline.
	Timeout time.Duration
	// Workers bounds per-request engine parallelism (0 = all cores).
	Workers int
	// MaxBodyBytes caps request bodies (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
}

// Server is the HTTP serving tier. Create with New; it is an
// http.Handler and safe for concurrent use (the engine underneath is).
type Server struct {
	cfg   Config
	cache *instcache.Cache
	mux   *http.ServeMux

	// Cumulative request-lifecycle counters, exposed by /v1/stats.
	requests    atomic.Uint64 // every API request received
	rejections  atomic.Uint64 // admission.ErrRejected → 422
	checkpoints atomic.Uint64 // cancel/timeout → 408 with a checkpoint token
	failures    atomic.Uint64 // other non-2xx outcomes
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cache := cfg.Cache
	if cache == nil {
		cache = instcache.New(instcache.DefaultBudget)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{cfg: cfg, cache: cache, mux: http.NewServeMux()}
	s.mux.HandleFunc("/v1/count", s.api(s.handleCount))
	s.mux.HandleFunc("/v1/enum", s.api(s.handleEnum))
	s.mux.HandleFunc("/v1/sample", s.api(s.handleSample))
	s.mux.HandleFunc("/v1/rank", s.api(s.handleRank))
	s.mux.HandleFunc("/v1/unrank", s.api(s.handleUnrank))
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// Cache returns the server's compiled-index cache (for tests and stats).
func (s *Server) Cache() *instcache.Cache { return s.cache }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Request is the JSON body every /v1/* problem endpoint accepts. Exactly
// one of N or the Lo/Hi pair selects single-length vs range form (an
// el1:R: range cursor carries its own range, so enum may omit both).
type Request struct {
	// Automaton is the instance, in internal/automata's text format.
	Automaton string `json:"automaton"`
	// N is the witness length of a single-length request.
	N *int `json:"n,omitempty"`
	// Lo, Hi select the range form over witness lengths [lo, hi].
	Lo *int `json:"lo,omitempty"`
	Hi *int `json:"hi,omitempty"`
	// Limit is the enum page size (0 = DefaultPageLimit).
	Limit int `json:"limit,omitempty"`
	// Cursor resumes an enumeration from a previous page's token.
	Cursor string `json:"cursor,omitempty"`
	// Seek starts an enumeration at this decimal 0-based rank
	// (RelationUL; a global rank on range sessions).
	Seek string `json:"seek,omitempty"`
	// Samples is the sample batch size (sample; 0 = 1).
	Samples int `json:"samples,omitempty"`
	// Distinct samples without replacement (sample; RelationUL).
	Distinct bool `json:"distinct,omitempty"`
	// Exact forces exact counting (count; may be exponential for
	// RelationNL — bound it with admission limits).
	Exact bool `json:"exact,omitempty"`
	// Seed makes randomized answers reproducible (0 = fixed default).
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds engine parallelism for this request, within the
	// server's own Config.Workers cap (0 = server default).
	Workers int `json:"workers,omitempty"`
	// Delta is the FPRAS target relative error (count; 0 = default).
	Delta float64 `json:"delta,omitempty"`
	// Word is the witness to rank, in alphabet symbols.
	Word *string `json:"word,omitempty"`
	// Rank is the decimal 0-based rank to unrank.
	Rank string `json:"rank,omitempty"`
	// TimeoutMS is a per-request deadline in milliseconds; the server's
	// Config.Timeout caps it. 0 = the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`

	// tenant is carried out-of-band in the X-Tenant header, never the
	// body: the header names who is asking, the body names the problem.
	tenant string
}

// Response is the JSON envelope every 2xx answer uses; fields are
// per-endpoint (enum fills Words/Token/Done, count fills Count/Exact, …).
type Response struct {
	Class string   `json:"class,omitempty"`
	Count string   `json:"count,omitempty"`
	Exact *bool    `json:"exact,omitempty"`
	Words []string `json:"words,omitempty"`
	Token string   `json:"token,omitempty"`
	Done  bool     `json:"done,omitempty"`
	Rank  string   `json:"rank,omitempty"`
	Word  *string  `json:"word,omitempty"`
	Empty bool     `json:"empty,omitempty"`
}

// ErrorBody is the JSON envelope every non-2xx answer uses. Token is the
// checkpoint of a cancelled or timed-out enumeration: resuming from it
// continues bitwise where the deadline landed. Words is the partial page
// enumerated before the deadline — the checkpoint sits after them, so a
// client appends Words and resumes from Token with nothing lost.
type ErrorBody struct {
	Error string   `json:"error"`
	Token string   `json:"token,omitempty"`
	Words []string `json:"words,omitempty"`
}

// StatsResponse is /v1/stats: request-lifecycle counters, the cache-wide
// counters, and per-entry accounting for every resident index, most
// recently used first: the normal form's pre-hash and state count (Pre,
// States; a label, not an identity, and no automaton text), the range
// (Lo, Hi), the estimated bytes, and the hit, miss and build counts.
type StatsResponse struct {
	Requests    uint64                 `json:"requests"`
	Rejections  uint64                 `json:"rejections"`
	Checkpoints uint64                 `json:"checkpoints"`
	Failures    uint64                 `json:"failures"`
	Cache       instcache.Stats        `json:"cache"`
	Entries     []instcache.EntryStats `json:"entries,omitempty"`
}

// instanceRequest is a decoded, admission-checked request: the prepared
// core instance plus the resolved length/range selection.
type instanceRequest struct {
	req       *Request
	inst      *core.Instance
	rangeMode bool
	lo, hi    int
}

// api wraps a problem handler with the shared request lifecycle: method
// check, body decode, per-tenant admission resolution, deadline
// application, automaton parse and instance construction — every step
// request-sized, nothing length-sized (core defers that until after its
// own admission checks).
func (s *Server) api(h func(ctx context.Context, w http.ResponseWriter, ir *instanceRequest)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if r.Method != http.MethodPost {
			s.failures.Add(1)
			writeJSON(w, http.StatusMethodNotAllowed, ErrorBody{Error: "POST only"})
			return
		}
		var req Request
		body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.failures.Add(1)
			writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "decoding request: " + err.Error()})
			return
		}
		req.tenant = r.Header.Get("X-Tenant")
		ctx := r.Context()
		if d := s.deadline(&req); d > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		ir, status, err := s.prepare(&req)
		if err != nil {
			s.countError(err)
			writeJSON(w, status, ErrorBody{Error: err.Error()})
			return
		}
		h(ctx, w, ir)
	}
}

// deadline resolves the request's effective timeout: the server cap,
// tightened (never widened) by the request's own timeout_ms.
func (s *Server) deadline(req *Request) time.Duration {
	d := s.cfg.Timeout
	if req.TimeoutMS > 0 {
		rd := time.Duration(req.TimeoutMS) * time.Millisecond
		if d <= 0 || rd < d {
			d = rd
		}
	}
	return d
}

// prepare parses the automaton, resolves the length/range selection and
// builds the admission-checked core instance. The returned status is
// meaningful only on error.
func (s *Server) prepare(req *Request) (*instanceRequest, int, error) {
	if strings.TrimSpace(req.Automaton) == "" {
		return nil, http.StatusBadRequest, errors.New("missing automaton")
	}
	// The tenant's state limit runs inside the parse, after the text is
	// validated and before anything sized by the declared state count is
	// allocated: an oversized states: header is a 422 that costs one pass
	// over the body, not a state-sized table.
	limits := s.limitsFor(req)
	nfa, err := automata.UnmarshalStringChecked(req.Automaton, limits.CheckStates)
	if errors.Is(err, admission.ErrRejected) {
		return nil, http.StatusUnprocessableEntity, err
	}
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("parsing automaton: %w", err)
	}
	ir := &instanceRequest{req: req}
	length := 0
	switch {
	case req.Lo != nil || req.Hi != nil:
		if req.N != nil {
			return nil, http.StatusBadRequest, errors.New("n conflicts with lo/hi (the range form replaces the single length)")
		}
		if req.Lo == nil || req.Hi == nil || *req.Lo < 0 || *req.Lo > *req.Hi {
			return nil, http.StatusBadRequest, errors.New("bad length range (need 0 <= lo <= hi)")
		}
		ir.rangeMode = true
		ir.lo, ir.hi = *req.Lo, *req.Hi
		length = ir.hi
	case req.N != nil:
		length = *req.N
	case enumerate.IsRangeToken(req.Cursor):
		// An el1:R: cursor carries its own (fingerprint-validated) range;
		// the instance length is irrelevant on that path.
	default:
		return nil, http.StatusBadRequest, errors.New("missing witness length (set n, or lo and hi)")
	}
	workers := req.Workers
	if workers <= 0 || (s.cfg.Workers > 0 && workers > s.cfg.Workers) {
		workers = s.cfg.Workers
	}
	inst, err := core.New(nfa, length, core.Options{
		Delta:   req.Delta,
		Seed:    req.Seed,
		Workers: workers,
		Limits:  limits,
		Cache:   s.cache,
	})
	if err != nil {
		if errors.Is(err, admission.ErrRejected) {
			return nil, http.StatusUnprocessableEntity, err
		}
		return nil, http.StatusBadRequest, err
	}
	ir.inst = inst
	return ir, 0, nil
}

// limitsFor resolves the admission policy for the request's tenant.
func (s *Server) limitsFor(req *Request) *admission.Limits {
	if l, ok := s.cfg.TenantLimits[req.tenant]; ok {
		return l
	}
	return s.cfg.Limits
}

// countError bumps the counter matching an error's lifecycle class.
func (s *Server) countError(err error) {
	switch {
	case errors.Is(err, admission.ErrRejected):
		s.rejections.Add(1)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.checkpoints.Add(1)
	default:
		s.failures.Add(1)
	}
}

// fail writes the error envelope with the lifecycle-appropriate status:
// 422 for admission rejections, 408 for cancel/timeout (handleEnum writes
// its own 408 so the checkpoint token and partial page ride along), 400
// otherwise.
func (s *Server) fail(w http.ResponseWriter, err error) {
	s.countError(err)
	switch {
	case errors.Is(err, admission.ErrRejected):
		writeJSON(w, http.StatusUnprocessableEntity, ErrorBody{Error: err.Error()})
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusRequestTimeout, ErrorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error()})
	}
}

func (s *Server) handleCount(ctx context.Context, w http.ResponseWriter, ir *instanceRequest) {
	inst, req := ir.inst, ir.req
	resp := Response{Class: inst.Class().String()}
	switch {
	case ir.rangeMode:
		total, err := inst.TotalRangeCtx(ctx, ir.lo, ir.hi)
		if err != nil {
			s.fail(w, err)
			return
		}
		resp.Count, resp.Exact = total.String(), boolPtr(true)
	case req.Exact:
		c, err := inst.CountExact(0)
		if err != nil {
			s.fail(w, err)
			return
		}
		resp.Count, resp.Exact = c.String(), boolPtr(true)
	default:
		v, isExact, err := inst.CountCtx(ctx)
		if err != nil {
			s.fail(w, err)
			return
		}
		resp.Count, resp.Exact = v.Text('f', 0), boolPtr(isExact)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleEnum(ctx context.Context, w http.ResponseWriter, ir *instanceRequest) {
	inst, req := ir.inst, ir.req
	limit := req.Limit
	if limit <= 0 {
		limit = DefaultPageLimit
	}
	var seekRank *big.Int
	if req.Seek != "" {
		r, err := parseRank(req.Seek)
		if err != nil {
			s.fail(w, err)
			return
		}
		seekRank = r
	}
	opts := core.CursorOptions{
		Ctx:      ctx,
		Cursor:   req.Cursor,
		SeekRank: seekRank,
		Limit:    limit,
		Workers:  req.Workers,
		Ordered:  true, // pages must be bitwise identical across replicas
	}
	var sess enumerate.Session
	var err error
	switch {
	case ir.rangeMode:
		sess, err = inst.EnumerateRange(ir.lo, ir.hi, opts)
	case enumerate.IsRangeToken(req.Cursor):
		sess, err = inst.EnumerateRangeFrom(req.Cursor, opts)
	default:
		sess, err = inst.Enumerate(opts)
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	defer sess.Close()
	// Cap the preallocation: limit is client-controlled, and a huge limit
	// should cost what the stream delivers, not an up-front arena.
	prealloc := limit
	if prealloc > 4096 {
		prealloc = 4096
	}
	words := make([]string, 0, prealloc)
	exhausted := false
	var pageErr error
	// The session checks ctx at delivery-batch boundaries, but a context
	// deadline only becomes observable once its timer goroutine has run —
	// on a saturated box that is milliseconds late, and every late
	// millisecond is thousands of words enumerated past the deadline into
	// a response nobody asked to be that big. The drain loop therefore
	// compares the wall clock against the deadline itself, at the same
	// batch cadence.
	deadline, hasDeadline := ctx.Deadline()
	for {
		if hasDeadline && len(words)%enumerate.DefaultDeliveryBatch == 0 && !time.Now().Before(deadline) {
			pageErr = context.DeadlineExceeded
			break
		}
		word, ok := sess.Next()
		if !ok {
			exhausted = len(words) < limit
			break
		}
		words = append(words, inst.FormatWord(word))
	}
	token, _ := sess.Token()
	if err := sess.Err(); err != nil {
		pageErr = err
	}
	if err := pageErr; err != nil {
		// A deadline mid-page is a checkpoint, not corruption: the token
		// and the partial page ride in the error body, and the token
		// resumes bitwise after the last word delivered.
		s.countError(err)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			writeJSON(w, http.StatusRequestTimeout, ErrorBody{Error: err.Error(), Token: token, Words: words})
			return
		}
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, Response{
		Class: inst.Class().String(),
		Words: words,
		Token: token,
		Done:  exhausted,
	})
}

func (s *Server) handleSample(ctx context.Context, w http.ResponseWriter, ir *instanceRequest) {
	inst, req := ir.inst, ir.req
	k := req.Samples
	if k <= 0 {
		k = 1
	}
	var ws []automata.Word
	var err error
	switch {
	case ir.rangeMode && req.Distinct:
		s.fail(w, errors.New("distinct sampling has no range form (draw and deduplicate per length)"))
		return
	case ir.rangeMode:
		ws, err = inst.SampleManyRangeCtx(ctx, ir.lo, ir.hi, k, req.Workers)
	case req.Distinct:
		ws, err = inst.SampleDistinctCtx(ctx, k)
	default:
		ws, err = inst.SampleManyParallelCtx(ctx, k, req.Workers)
	}
	if err == core.ErrEmpty {
		writeJSON(w, http.StatusOK, Response{Class: inst.Class().String(), Empty: true})
		return
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	words := make([]string, len(ws))
	for i, word := range ws {
		words[i] = inst.FormatWord(word)
	}
	writeJSON(w, http.StatusOK, Response{Class: inst.Class().String(), Words: words})
}

func (s *Server) handleRank(ctx context.Context, w http.ResponseWriter, ir *instanceRequest) {
	inst, req := ir.inst, ir.req
	if req.Word == nil {
		s.fail(w, errors.New("missing word to rank"))
		return
	}
	word, err := inst.Automaton().Alphabet().ParseWord(*req.Word)
	if err != nil {
		s.fail(w, err)
		return
	}
	var r *big.Int
	if ir.rangeMode {
		r, err = inst.RankRangeCtx(ctx, ir.lo, ir.hi, word)
	} else {
		r, err = inst.RankCtx(ctx, word)
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, Response{Class: inst.Class().String(), Rank: r.String()})
}

func (s *Server) handleUnrank(ctx context.Context, w http.ResponseWriter, ir *instanceRequest) {
	inst, req := ir.inst, ir.req
	if req.Rank == "" {
		s.fail(w, errors.New("missing rank to unrank"))
		return
	}
	r, err := parseRank(req.Rank)
	if err != nil {
		s.fail(w, err)
		return
	}
	var word automata.Word
	if ir.rangeMode {
		word, err = inst.UnrankRangeCtx(ctx, ir.lo, ir.hi, r)
	} else {
		word, err = inst.UnrankCtx(ctx, r)
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	formatted := inst.FormatWord(word)
	writeJSON(w, http.StatusOK, Response{Class: inst.Class().String(), Word: &formatted})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorBody{Error: "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Requests:    s.requests.Load(),
		Rejections:  s.rejections.Load(),
		Checkpoints: s.checkpoints.Load(),
		Failures:    s.failures.Load(),
		Cache:       s.cache.Stats(),
		Entries:     s.cache.EntryStats(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// A failed write means the client went away; there is nothing left to
	// report it to.
	_ = enc.Encode(v)
}

func boolPtr(b bool) *bool { return &b }

// parseRank parses a decimal 0-based rank.
func parseRank(s string) (*big.Int, error) {
	r, ok := new(big.Int).SetString(s, 10)
	if !ok {
		return nil, fmt.Errorf("malformed rank %q (want a decimal integer)", s)
	}
	return r, nil
}
