package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"runtime"
	"strconv"

	"repro/internal/admission"
	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/countdag"
	"repro/internal/enumerate"
	"repro/internal/exact"
	"repro/internal/fpras"
	"repro/internal/instcache"
	"repro/internal/lengthrange"
	"repro/internal/nfad"
	"repro/internal/sample"
	"repro/internal/unroll"
)

// Random-stream namespaces core uses for batch sampling (its streamULBatch
// and streamULRange) and the seed it substitutes for 0. The byte-equality
// check against nfad catches any drift.
const (
	coreStreamULBatch = 0xC0DE1
	coreStreamULRange = 0xC0DE2
	coreDefaultSeed   = 0xC0DE
)

// mirror answers the workloads' requests the way nfad does, rebuilt from
// the layers' public calls so that each call can carry a span: request
// decode, automata.UnmarshalString, core.New, instcache.KeyFor plus the
// cache lookup with core's build closure (resolved before the op, so the
// op's span holds only the descent or the draws), the enumerate resume,
// drain and token, the op itself, and the response encode. It covers
// exactly the request forms the workloads send.
type mirror struct {
	cache *instcache.Cache
	rec   *recorder
}

// reqTrace is one mirrored request's handle on the recorder; a request
// without a span header (setup traffic) records nothing.
type reqTrace struct {
	rec  *recorder
	root int32
}

func (t reqTrace) begin(parent int32, name string) int32 {
	if t.root < 0 {
		return -1
	}
	if parent < 0 {
		parent = t.root
	}
	return t.rec.begin(t.root, parent, name)
}

func (t reqTrace) end(id int32, words int) {
	if id >= 0 {
		t.rec.end(id, words)
	}
}

// side times f next to span shadow (see span.Shadow); untraced requests
// skip the side call entirely.
func (t reqTrace) side(shadow int32, name string, f func()) {
	if t.root >= 0 {
		t.rec.side(t.root, shadow, name, f)
	}
}

func (m *mirror) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := reqTrace{rec: m.rec, root: -1}
	if v := r.Header.Get(spanHeader); v != "" {
		id, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad span header", http.StatusBadRequest)
			return
		}
		tr.root = int32(id)
	}
	s := tr.begin(-1, "nfad.decode")
	var req nfad.Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	tr.end(s, 0)
	if err != nil {
		writeAnswer(tr, w, http.StatusBadRequest, nfad.ErrorBody{Error: "decoding request: " + err.Error()}, nil, nil)
		return
	}
	resp, words, inst, err := m.answer(r.Context(), tr, r.URL.Path, &req)
	if err != nil {
		writeAnswer(tr, w, http.StatusBadRequest, nfad.ErrorBody{Error: err.Error()}, nil, nil)
		return
	}
	writeAnswer(tr, w, http.StatusOK, resp, inst, words)
}

// writeAnswer is nfad's response encoding: the words formatted with the
// instance alphabet, then the JSON envelope, in one encode span.
func writeAnswer(tr reqTrace, w http.ResponseWriter, status int, v any, inst *core.Instance, words []automata.Word) {
	s := tr.begin(-1, "nfad.encode")
	if resp, ok := v.(*nfad.Response); ok && len(words) > 0 {
		resp.Words = make([]string, len(words))
		for i, word := range words {
			resp.Words[i] = inst.FormatWord(word)
		}
	}
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(v) // structs of strings and bools always encode
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // a failed write means the client left
	tr.end(s, len(words))
}

// answer runs one request: prepare, then the op. Words are returned
// unformatted; formatting belongs to the encode span, as in nfad.
func (m *mirror) answer(ctx context.Context, tr reqTrace, path string, req *nfad.Request) (*nfad.Response, []automata.Word, *core.Instance, error) {
	s := tr.begin(-1, "automata.parse")
	nfa, err := automata.UnmarshalString(req.Automaton)
	tr.end(s, 0)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("parsing automaton: %w", err)
	}
	rangeMode := req.Lo != nil
	length := 0
	switch {
	case rangeMode:
		length = *req.Hi
	case req.N != nil:
		length = *req.N
	default:
		return nil, nil, nil, errors.New("mirror: request without n or lo/hi")
	}
	s = tr.begin(-1, "core.new")
	inst, err := core.New(nfa, length, core.Options{Delta: req.Delta, Seed: req.Seed, Cache: m.cache})
	tr.end(s, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	// core.New trims (and canonicalizes deterministic automata) and runs
	// the unambiguity test internally; time both on the same input.
	var trimmed *automata.NFA
	tr.side(s, "automata.trim_canon", func() {
		trimmed = automata.Trim(nfa)
		if automata.IsDeterministic(trimmed) {
			trimmed = automata.Canonicalize(trimmed)
		}
	})
	tr.side(s, "automata.unamb", func() { automata.IsUnambiguous(trimmed) })

	resp := &nfad.Response{Class: inst.Class().String()}
	ul := inst.Class() == core.ClassUL
	a := inst.Automaton()
	var words []automata.Word
	switch path {
	case "/v1/enum":
		words, err = m.enum(tr, inst, req, resp)
	case "/v1/count":
		yes := true
		resp.Exact = &yes
		switch {
		case rangeMode:
			ri, rerr := m.rangeIndex(ctx, tr, inst, *req.Lo, *req.Hi)
			if rerr != nil {
				return nil, nil, nil, rerr
			}
			s = tr.begin(-1, "lengthrange.total")
			resp.Count = ri.TotalRange().String()
			tr.end(s, 0)
		case ul:
			s = tr.begin(-1, "exact.count")
			c := exact.CountUFA(a, length)
			resp.Count = new(big.Float).SetPrec(uint(64+length)).SetInt(c).Text('f', 0)
			tr.end(s, 0)
		default:
			est, eerr := m.estimator(ctx, tr, inst, req)
			if eerr != nil {
				return nil, nil, nil, eerr
			}
			isExact := est.Exact()
			resp.Count, resp.Exact = est.Count().Text('f', 0), &isExact
		}
	case "/v1/sample":
		k := max(req.Samples, 1)
		workers := min(runtime.GOMAXPROCS(0), k)
		seed := req.Seed
		if seed == 0 {
			seed = coreDefaultSeed
		}
		switch {
		case rangeMode:
			ri, rerr := m.rangeIndex(ctx, tr, inst, *req.Lo, *req.Hi)
			if rerr != nil {
				return nil, nil, nil, rerr
			}
			s = tr.begin(-1, "lengthrange.draw")
			words, err = ri.SampleManyCtx(ctx, seed, coreStreamULRange, k, workers)
			tr.end(s, len(words))
		case ul:
			idx, ierr := m.ufaIndex(ctx, tr, inst)
			if ierr != nil {
				return nil, nil, nil, ierr
			}
			s = tr.begin(-1, "sample.draw")
			words, err = sample.NewUFASamplerIndex(a, idx).SampleManyCtx(ctx, seed, coreStreamULBatch, k, workers)
			tr.end(s, len(words))
		default:
			est, eerr := m.estimator(ctx, tr, inst, req)
			if eerr != nil {
				return nil, nil, nil, eerr
			}
			s = tr.begin(-1, "fpras.draw")
			words, err = est.SampleN(k, workers)
			tr.end(s, len(words))
		}
		if errors.Is(err, sample.ErrEmpty) || errors.Is(err, lengthrange.ErrEmpty) || errors.Is(err, fpras.ErrEmpty) {
			return &nfad.Response{Class: resp.Class, Empty: true}, nil, inst, nil
		}
	case "/v1/unrank", "/v1/rank":
		words, err = m.ranked(ctx, tr, inst, req, path == "/v1/rank", resp)
	default:
		return nil, nil, nil, fmt.Errorf("mirror: unsupported path %s", path)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return resp, words, inst, nil
}

// ranked answers /v1/unrank (the word, as one formatted word) and
// /v1/rank through the resolved index.
func (m *mirror) ranked(ctx context.Context, tr reqTrace, inst *core.Instance, req *nfad.Request, rank bool, resp *nfad.Response) ([]automata.Word, error) {
	var word automata.Word
	var r *big.Int
	if rank {
		w, err := parseWord(inst.Automaton().Alphabet(), *req.Word)
		if err != nil {
			return nil, err
		}
		word = w
	} else {
		var ok bool
		if r, ok = new(big.Int).SetString(req.Rank, 10); !ok {
			return nil, fmt.Errorf("malformed rank %q (want a decimal integer)", req.Rank)
		}
	}
	var err error
	if req.Lo != nil {
		ri, rerr := m.rangeIndex(ctx, tr, inst, *req.Lo, *req.Hi)
		if rerr != nil {
			return nil, rerr
		}
		if rank {
			s := tr.begin(-1, "lengthrange.rank")
			r, err = ri.RankRange(word)
			tr.end(s, 0)
		} else {
			s := tr.begin(-1, "lengthrange.unrank")
			word, err = ri.UnrankRange(r)
			tr.end(s, 1)
		}
	} else {
		idx, ierr := m.ufaIndex(ctx, tr, inst)
		if ierr != nil {
			return nil, ierr
		}
		if rank {
			s := tr.begin(-1, "countdag.rank")
			r, err = idx.Rank(word)
			tr.end(s, 0)
		} else {
			s := tr.begin(-1, "countdag.unrank")
			word, err = idx.Unrank(r)
			tr.end(s, 1)
		}
	}
	if err != nil {
		return nil, err
	}
	if rank {
		resp.Rank = r.String()
		return nil, nil
	}
	formatted := inst.FormatWord(word)
	resp.Word = &formatted
	return nil, nil
}

// enum opens (or resumes) the serial session, drains one page and mints
// the next token.
func (m *mirror) enum(tr reqTrace, inst *core.Instance, req *nfad.Request, resp *nfad.Response) ([]automata.Word, error) {
	a, n := inst.Automaton(), inst.Length()
	ul := inst.Class() == core.ClassUL
	s := tr.begin(-1, "enumerate.open")
	sess, err := openSession(a, n, ul, req.Cursor)
	tr.end(s, 0)
	if err != nil {
		return nil, err
	}
	if ul {
		// The UFA constructors run Algorithm 1's unrolling internally.
		tr.side(s, "unroll.build", func() { _, _ = unroll.Build(a, n, unroll.Options{PruneBackward: true}) })
	}
	limit := req.Limit
	if limit <= 0 {
		limit = nfad.DefaultPageLimit
	}
	// Drain into one flat buffer (Next's slice is reused); formatting is
	// the encode span's work.
	s = tr.begin(-1, "enumerate.next")
	flat := make([]int, 0, min(limit, 4096)*n)
	count := 0
	for count < limit {
		w, ok := sess.Next()
		if !ok {
			break
		}
		flat = append(flat, w...)
		count++
	}
	tr.end(s, count)
	s = tr.begin(-1, "enumerate.token")
	resp.Token, _ = sess.Token()
	tr.end(s, 0)
	resp.Done = count < limit
	words := make([]automata.Word, count)
	for i := range words {
		words[i] = flat[i*n : (i+1)*n]
	}
	return words, nil
}

// openSession is core's serial session factory for a single length: a
// fresh enumerator, or the cursor's position after its checks.
func openSession(a *automata.NFA, n int, ul bool, cursor string) (enumerate.Session, error) {
	if cursor == "" {
		if ul {
			return enumerate.NewUFA(a, n)
		}
		return enumerate.NewNFA(a, n)
	}
	c, err := enumerate.ParseToken(cursor)
	if err != nil {
		return nil, err
	}
	if c.Length != n {
		return nil, fmt.Errorf("core: cursor length %d does not match session length %d", c.Length, n)
	}
	if ul {
		return enumerate.NewUFAFrom(a, c)
	}
	return enumerate.NewNFAFrom(a, c)
}

// ufaIndex resolves the single-length counting index through the cache
// with core's build closure.
func (m *mirror) ufaIndex(ctx context.Context, tr reqTrace, inst *core.Instance) (*countdag.Index, error) {
	a, n := inst.Automaton(), inst.Length()
	key := m.key(tr, a)
	est := admission.EstimateIndexBytes(a.NumStates(), a.NumTransitions(), n)
	s := tr.begin(-1, "instcache.lookup")
	defer tr.end(s, 0)
	idx, _, err := m.cache.UFAIndex(ctx, key, n, est, func(bctx context.Context) (*countdag.Index, error) {
		u := tr.begin(s, "unroll.build")
		dag, err := unroll.Build(a, n, unroll.Options{PruneBackward: true})
		tr.end(u, 0)
		if err != nil {
			return nil, err
		}
		c := tr.begin(s, "countdag.build")
		defer tr.end(c, 0)
		return countdag.BuildCtx(bctx, dag, runtime.GOMAXPROCS(0))
	})
	return idx, err
}

// rangeIndex resolves the cross-length index over [lo, hi] likewise.
func (m *mirror) rangeIndex(ctx context.Context, tr reqTrace, inst *core.Instance, lo, hi int) (*lengthrange.RangeIndex, error) {
	a := inst.Automaton()
	key := m.key(tr, a)
	est := admission.EstimateIndexBytes(a.NumStates(), a.NumTransitions(), hi)
	s := tr.begin(-1, "instcache.lookup")
	defer tr.end(s, 0)
	ri, _, err := m.cache.RangeIndex(ctx, key, lo, hi, est, func(bctx context.Context) (*lengthrange.RangeIndex, error) {
		b := tr.begin(s, "lengthrange.build")
		defer tr.end(b, 0)
		return lengthrange.BuildCtx(bctx, a, lo, hi, runtime.GOMAXPROCS(0))
	})
	return ri, err
}

func (m *mirror) key(tr reqTrace, a *automata.NFA) *instcache.Key {
	s := tr.begin(-1, "instcache.key")
	defer tr.end(s, 0)
	return instcache.KeyFor(a)
}

// estimator builds the request's FPRAS state, as core does on every
// RelationNL count or sample (binary alphabets only: the workloads post
// no other).
func (m *mirror) estimator(ctx context.Context, tr reqTrace, inst *core.Instance, req *nfad.Request) (*fpras.Estimator, error) {
	a := inst.Automaton()
	if a.Alphabet().Size() != 2 {
		return nil, errors.New("mirror: only binary RelationNL automata are mirrored")
	}
	s := tr.begin(-1, "fpras.build")
	defer tr.end(s, 0)
	return fpras.New(a, inst.Length(), fpras.Params{Delta: req.Delta, Seed: req.Seed, Ctx: ctx})
}

// parseWord decodes a witness over single-character symbol names (the
// only alphabets the workloads use).
func parseWord(alpha *automata.Alphabet, s string) (automata.Word, error) {
	w := make(automata.Word, len(s))
	for i := range s {
		a, ok := alpha.Symbol(s[i : i+1])
		if !ok {
			return nil, fmt.Errorf("witness %q: no alphabet symbol matches at %q", s, s[i:i+1])
		}
		w[i] = a
	}
	return w, nil
}
