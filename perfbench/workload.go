package main

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"math/big"
	"math/rand"
	"slices"

	"repro/internal/admission"
	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/instcache"
	"repro/internal/nfad"
)

// Workload names, as --workload takes them.
const (
	wEnumPages = "enum-pages"
	wEnumBulk  = "enum-bulk"
	wRanked    = "ranked"
	wNLMixed   = "nl-mixed"
)

var workloadNames = []string{wEnumPages, wEnumBulk, wRanked, wNLMixed}

// Load shape and request parameters shared by every workload.
const (
	numClients  = 2 // closed-loop clients (the container has 2 vCPUs)
	numReplicas = 2 // shared-nothing nfad replicas, round-robin per request

	rankedSampleK = 16 // ranked: /v1/sample batch size
	// rankedZipfS (the Zipf exponent of tenant popularity) and
	// rankedBudgetShare (each ranked replica's cache budget as a share of
	// the working set's estimated index bytes; below 1, so the working set
	// does not fit and the cache evicts) are not measured from traffic: they
	// are set so that the cache hit ratio lands in 0.6–0.8, which the traced
	// run reports as instcache.hit_ratio.
	rankedZipfS       = 1.2
	rankedBudgetShare = 0.2

	nlDelta    = 0.5 // nl-mixed: FPRAS relative error on every request
	nlSeed     = 7   // nl-mixed: fixed request seed
	nlSampleK  = 4   // nl-mixed: /v1/sample batch size
	nlPageSize = 64  // nl-mixed: /v1/enum page size
	// nlCatalogSeed fixes the nl-mixed automaton shapes; the workload seed
	// relabels their states (see nlTenants).
	nlCatalogSeed = 0x4E4C
)

// size is one workload's input dimensions. tinySizes shrinks them for the
// self-test; the request mix and every check stay the same.
type size struct {
	tenants              int
	minStates, maxStates int
	minLen, maxLen       int // witness length of single-length requests
	page                 int // enum page size (enum workloads)
}

var fullSizes = map[string]size{
	wEnumPages: {tenants: 64, minStates: 32, maxStates: 256, minLen: 24, maxLen: 24, page: 8},
	wEnumBulk:  {tenants: 8, minStates: 32, maxStates: 128, minLen: 32, maxLen: 32, page: 4096},
	wRanked:    {tenants: 256, minStates: 32, maxStates: 128, minLen: 16, maxLen: 32},
	wNLMixed:   {tenants: 8, minStates: 4, maxStates: 6, minLen: 8, maxLen: 9, page: nlPageSize},
}

var tinySizes = map[string]size{
	wEnumPages: {tenants: 4, minStates: 6, maxStates: 12, minLen: 10, maxLen: 10, page: 8},
	wEnumBulk:  {tenants: 2, minStates: 6, maxStates: 10, minLen: 12, maxLen: 12, page: 256},
	wRanked:    {tenants: 8, minStates: 6, maxStates: 12, minLen: 8, maxLen: 12},
	wNLMixed:   {tenants: 2, minStates: 3, maxStates: 4, minLen: 8, maxLen: 8, page: 16},
}

// tenant is one automaton of a workload's working set, with the reference
// answers its checks compare against (computed before any timing starts).
type tenant struct {
	id     int
	text   string // automaton text format, as every request posts it
	nfa    *automata.NFA
	n      int // witness length of single-length requests
	lo, hi int // ranked: the range form [lo, hi]
	nl     bool
	// count is |L_n|: exact.CountUFA for RelationUL, exact.CountNFA for
	// RelationNL. rangeCount is core.Instance.TotalRange(lo, hi) (ranked).
	count, rangeCount *big.Int
	// estBytes is admission.EstimateIndexBytes summed over the tenant's
	// cache keys (ranked): what the replicas' caches charge for it.
	estBytes int64
}

// spec is a generated workload: its tenants plus the per-replica cache
// budget. Streams are rebuilt from it for every timed phase.
type spec struct {
	name    string
	seed    int64
	tenants []*tenant
	page    int
	budget  int64
	hash    maphash.Seed // transcript digests (client and reference)
}

// ladder spreads tenant i's dimension over [lo, hi] by a fixed
// low-discrepancy sequence, so every seed sees the same mix of sizes and
// only the automata's structure varies with the seed.
func ladder(i, lo, hi int) int {
	_, frac := math.Modf(float64(i) * 0.6180339887498949)
	return lo + int(frac*float64(hi-lo+1))
}

func alphabetOf(sigma int) *automata.Alphabet {
	return automata.NewAlphabet([]string{"a", "b", "c", "d"}[:sigma]...)
}

// buildSpec generates a workload's inputs from its seed alone.
func buildSpec(name string, seed int64, tiny bool) (*spec, error) {
	sizes := fullSizes
	if tiny {
		sizes = tinySizes
	}
	sz, ok := sizes[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	sp := &spec{name: name, seed: seed, page: sz.page, budget: instcache.DefaultBudget, hash: maphash.MakeSeed()}
	var err error
	if name == wNLMixed {
		sp.tenants, err = nlTenants(sz, seed)
	} else {
		sp.tenants, err = ulTenants(sz, seed, name == wRanked)
	}
	if err != nil {
		return nil, err
	}
	if name == wRanked {
		var ws int64
		for _, t := range sp.tenants {
			ws += t.estBytes
		}
		sp.budget = int64(float64(ws) * rankedBudgetShare)
	}
	return sp, nil
}

// ulTenants draws random complete DFAs (RelationUL). Sizes follow the
// ladder; the structure comes from the seed. Tenants with an empty slice
// at their length (or range) are redrawn, so no request answers ⊥.
func ulTenants(sz size, seed int64, ranked bool) ([]*tenant, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tenant, sz.tenants)
	for i := range out {
		m := ladder(i, sz.minStates, sz.maxStates)
		alpha := alphabetOf(2 + i%3)
		t := &tenant{id: i, n: ladder(i+7, sz.minLen, sz.maxLen)}
		if ranked {
			t.lo = ladder(i+11, sz.minLen, (sz.minLen+sz.maxLen)/2)
			t.hi = ladder(i+13, t.lo+4, sz.maxLen)
		}
		for {
			d := automata.RandomDFA(rng, alpha, m, 0.5)
			inst, err := core.New(d, t.n, core.Options{})
			if err != nil {
				return nil, err
			}
			t.count = exact.CountUFA(inst.Automaton(), t.n)
			if t.count.Sign() == 0 {
				continue
			}
			if ranked {
				if t.rangeCount, err = inst.TotalRange(t.lo, t.hi); err != nil {
					return nil, err
				}
				a := inst.Automaton()
				t.estBytes = admission.EstimateIndexBytes(a.NumStates(), a.NumTransitions(), t.n) +
					admission.EstimateIndexBytes(a.NumStates(), a.NumTransitions(), t.hi)
			}
			t.nfa, t.text = d, automata.MarshalString(d)
			break
		}
		out[i] = t
	}
	return out, nil
}

// nlTenants builds the nl-mixed working set: ambiguous binary NFAs
// (RelationNL) whose language is larger than the FPRAS sketch, so every
// count and sample runs the estimating path. The shapes are drawn once
// from nlCatalogSeed and the workload seed relabels their states: the
// FPRAS build cost of two random NFAs of one size differs by ±35%, which
// with eight tenants would make per-seed throughput unsteady, while a
// relabelling changes the posted automaton and the estimator's random
// streams but not the work.
func nlTenants(sz size, seed int64) ([]*tenant, error) {
	cat := rand.New(rand.NewSource(nlCatalogSeed))
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tenant, sz.tenants)
	for i := range out {
		m := ladder(i, sz.minStates, sz.maxStates)
		n := ladder(i+7, sz.minLen, sz.maxLen)
		k := int(math.Ceil(8 * float64(n+1) / nlDelta)) // the sketch size fpras derives from δ
		var shape *automata.NFA
		var count *big.Int
		for {
			shape = automata.Random(cat, automata.Binary(), m, 0.3, 0.5)
			inst, err := core.New(shape, n, core.Options{})
			if err != nil {
				return nil, err
			}
			if inst.Class() != core.ClassNL || inst.Automaton().NumStates() != m {
				continue
			}
			if count, err = exact.CountNFA(shape, n, 0); err != nil {
				return nil, err
			}
			if count.Cmp(big.NewInt(int64(k))) > 0 {
				break
			}
		}
		nfa := automata.Relabel(shape, rng.Perm(m))
		out[i] = &tenant{id: i, text: automata.MarshalString(nfa), nfa: nfa, n: n, nl: true, count: count}
	}
	return out, nil
}

// call is one request of a stream's script.
type call struct {
	path string
	ten  *tenant
	req  nfad.Request
	// want is the rank a /v1/rank call must answer: the rank whose
	// /v1/unrank produced the word it sends.
	want string
}

// body marshals the request as a client posts it.
func (c *call) body() []byte {
	b, err := json.Marshal(c.req)
	if err != nil {
		panic(err) // nfad.Request has only marshalable fields
	}
	return b
}

// coldCalls are the setup requests, with their marshalled bodies: one per
// distinct working-set key, which every replica receives once before
// timing starts.
func (sp *spec) coldCalls() ([]*call, [][]byte) {
	var out []*call
	for _, t := range sp.tenants {
		n := t.n
		switch sp.name {
		case wRanked:
			lo, hi := t.lo, t.hi
			out = append(out,
				&call{path: "/v1/sample", ten: t, req: nfad.Request{Automaton: t.text, N: &n, Samples: 1, Seed: 1}},
				&call{path: "/v1/count", ten: t, req: nfad.Request{Automaton: t.text, Lo: &lo, Hi: &hi}})
		case wNLMixed:
			out = append(out, &call{path: "/v1/count", ten: t, req: nfad.Request{Automaton: t.text, N: &n, Delta: nlDelta, Seed: nlSeed}})
		default:
			out = append(out, &call{path: "/v1/enum", ten: t, req: nfad.Request{Automaton: t.text, N: &n, Limit: sp.page}})
		}
	}
	bodies := make([][]byte, len(out))
	for i, c := range out {
		bodies[i] = c.body()
	}
	return out, bodies
}

// pass is one run of an enum stream from its first word: how many words
// arrived, their digest, and whether the server reported the end.
type pass struct {
	words uint64
	sum   uint64
	done  bool
}

// sampled is one retained /v1/sample answer, checked for membership after
// the timed window.
type sampled struct {
	ten    *tenant
	lo, hi int
	words  []string
}

// stream is one client-side script: a paginating enum stream over one
// tenant, an nl-mixed cycle over one tenant, or a ranked op generator over
// the Zipf-skewed working set.
type stream struct {
	sp   *spec
	ten  *tenant
	rng  *rand.Rand
	zipf *rand.Zipf

	sent   int // requests sent; request k goes to replica k % numReplicas
	phase  int // nl-mixed: count, sample, enum page, repeat
	cursor string
	owed   *call // ranked: the /v1/rank owed after an /v1/unrank answer

	digest  maphash.Hash
	cur     pass
	passes  []pass
	samples []sampled
}

// newStreams builds each client's streams: on the tenant workloads one
// stream per tenant on every client, on ranked eight op generators per
// client. Both clients carry the same tenant mix, the first in a seeded
// order and the second in the reverse order, so that wherever the window
// cuts a cycle short the two partial cycles together cover the tenants
// evenly (nl-mixed has only eight tenants of unequal cost). Every op
// choice derives from the seed too, so each phase of a run replays the
// same script.
func (sp *spec) newStreams() [][]*stream {
	rng := rand.New(rand.NewSource(sp.seed ^ 0x5743))
	order := rng.Perm(len(sp.tenants))
	out := make([][]*stream, numClients)
	for c := range out {
		var mine []*stream
		if sp.name == wRanked {
			for i := 0; i < 8; i++ {
				r := rand.New(rand.NewSource(rng.Int63()))
				mine = append(mine, &stream{sp: sp, rng: r,
					zipf: rand.NewZipf(r, rankedZipfS, 1, uint64(len(sp.tenants)-1))})
			}
		} else {
			for _, i := range order {
				// nl-mixed: stagger the count/sample/page cycles, so that a
				// client's consecutive requests mix the three ops.
				mine = append(mine, &stream{sp: sp, ten: sp.tenants[i], phase: i % 3})
			}
			slices.Reverse(order)
		}
		for _, st := range mine {
			st.digest.SetSeed(sp.hash)
		}
		out[c] = mine
	}
	return out
}

// next returns the stream's next request and the replica it goes to.
func (st *stream) next() (*call, int) {
	replica := st.sent % numReplicas
	st.sent++
	t := st.ten
	n := 0
	if t != nil {
		n = t.n
	}
	switch st.sp.name {
	case wEnumPages, wEnumBulk:
		return st.page(), replica
	case wNLMixed:
		st.phase++
		switch st.phase % 3 {
		case 1:
			return &call{path: "/v1/count", ten: t, req: nfad.Request{Automaton: t.text, N: &n, Delta: nlDelta, Seed: nlSeed}}, replica
		case 2:
			return &call{path: "/v1/sample", ten: t, req: nfad.Request{Automaton: t.text, N: &n, Samples: nlSampleK, Delta: nlDelta, Seed: nlSeed}}, replica
		}
		return st.page(), replica
	}
	if c := st.owed; c != nil {
		st.owed = nil
		return c, replica
	}
	return st.rankedOp(), replica
}

// page is the stream's next /v1/enum page.
func (st *stream) page() *call {
	n := st.ten.n
	return &call{path: "/v1/enum", ten: st.ten, req: nfad.Request{Automaton: st.ten.text, N: &n, Limit: st.sp.page, Cursor: st.cursor}}
}

// rankedOp draws one ranked request: a Zipf-skewed tenant, the single
// length or the lo/hi range form with equal odds, and sample, unrank or
// count with equal odds (an unrank is followed by the /v1/rank of its
// word). So sample, unrank, rank and count are a quarter of the requests
// each, half of them in the range form. These weights are a fixed choice,
// not observed traffic: no op mix of real clients is on record, so every
// op form gets the same share.
func (st *stream) rankedOp() *call {
	t := st.sp.tenants[st.zipf.Uint64()]
	n, lo, hi := t.n, t.lo, t.hi
	req := nfad.Request{Automaton: t.text, N: &n}
	size := t.count
	if st.rng.Intn(2) == 1 {
		req.N, req.Lo, req.Hi = nil, &lo, &hi
		size = t.rangeCount
	}
	c := &call{ten: t}
	switch st.rng.Intn(3) {
	case 0:
		c.path, req.Samples, req.Seed = "/v1/sample", rankedSampleK, 1+st.rng.Int63n(1<<30)
	case 1:
		c.path, req.Rank = "/v1/unrank", new(big.Int).Rand(st.rng, size).String()
	default:
		c.path = "/v1/count"
	}
	c.req = req
	return c
}

// handle consumes one answer: it advances the stream (cursor, owed rank),
// runs the checks that need no reference beyond the tenant's counts, and
// retains what the post-run checks need. It returns the witnesses the
// answer delivered.
func (st *stream) handle(c *call, status int, body []byte) (int, error) {
	if status != 200 {
		return 0, fmt.Errorf("%s: HTTP %d: %.200s", c.path, status, body)
	}
	var resp nfad.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("%s: decoding answer: %v", c.path, err)
	}
	t := c.ten
	switch c.path {
	case "/v1/enum":
		for _, w := range resp.Words {
			st.digest.WriteString(w)
			st.digest.WriteByte('\n')
		}
		st.cur.words += uint64(len(resp.Words))
		st.cursor = resp.Token
		if resp.Done {
			st.endPass(true)
		}
		return len(resp.Words), nil
	case "/v1/sample":
		if resp.Empty || len(resp.Words) != c.req.Samples {
			return 0, fmt.Errorf("/v1/sample: %d words for a batch of %d (empty=%v)", len(resp.Words), c.req.Samples, resp.Empty)
		}
		s := sampled{ten: t, lo: t.n, hi: t.n, words: resp.Words}
		if c.req.Lo != nil {
			s.lo, s.hi = t.lo, t.hi
		}
		st.samples = append(st.samples, s)
		return len(resp.Words), nil
	case "/v1/unrank":
		if resp.Word == nil {
			return 0, fmt.Errorf("/v1/unrank: no word")
		}
		r := c.req
		r.Rank, r.Word = "", resp.Word
		st.owed = &call{path: "/v1/rank", ten: t, req: r, want: c.req.Rank}
		return 1, nil
	case "/v1/rank":
		if resp.Rank != c.want {
			return 0, fmt.Errorf("/v1/rank: rank(unrank(%s)) = %s", c.want, resp.Rank)
		}
		return 0, nil
	case "/v1/count":
		return 0, checkCount(t, c.req.Lo != nil, resp)
	}
	return 0, fmt.Errorf("unexpected path %s", c.path)
}

// endPass closes the current transcript pass; a finished stream starts
// over from its first word.
func (st *stream) endPass(done bool) {
	st.cur.sum, st.cur.done = st.digest.Sum64(), done
	st.passes = append(st.passes, st.cur)
	st.cur = pass{}
	st.digest.Reset()
	st.cursor = ""
}

// checkCount compares a count answer with the tenant's reference: equal
// to exact.CountUFA / TotalRange on RelationUL, within (1±δ) of
// exact.CountNFA on RelationNL.
func checkCount(t *tenant, ranged bool, resp nfad.Response) error {
	want := t.count
	if ranged {
		want = t.rangeCount
	}
	if !t.nl {
		if resp.Count != want.String() {
			return fmt.Errorf("/v1/count: %s, want %s", resp.Count, want)
		}
		return nil
	}
	got, ok := new(big.Float).SetString(resp.Count)
	if !ok {
		return fmt.Errorf("/v1/count: malformed count %q", resp.Count)
	}
	ratio, _ := new(big.Float).Quo(got, new(big.Float).SetInt(want)).Float64()
	if math.Abs(ratio-1) > nlDelta {
		return fmt.Errorf("/v1/count: estimate %s outside (1±%.2f)·%s", resp.Count, nlDelta, want)
	}
	return nil
}
