package nfad

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/instcache"
	"repro/internal/leakcheck"
	"repro/internal/limb"
)

// ulFixture accepts every binary word of every length through exactly one
// run (a 1-state DFA): RelationUL, |L_n| = 2^n.
const ulFixture = `alphabet: 0 1
states: 1
start: 0
final: 0
0 0 0
0 1 0
`

// nlFixture accepts every binary word with two runs per word: RelationNL.
const nlFixture = `alphabet: 0 1
states: 2
start: 0
final: 1
0 0 0
0 1 0
0 0 1
0 1 1
1 0 1
1 1 1
`

// chainFixture accepts exactly {aba}: rank/unrank smoke target.
const chainFixture = `alphabet: a b
states: 4
start: 0
final: 3
0 a 1
1 b 2
2 a 3
`

// post sends req (plus headers) to url and decodes the response body into
// out, returning the HTTP status.
func post(t *testing.T, client *http.Client, url string, req Request, headers map[string]string, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		hr.Header.Set(k, v)
	}
	resp, err := client.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func intPtr(v int) *int { return &v }

// canonicalWords drains the instance's ordered enumeration directly
// through core — the reference transcript every HTTP path must match.
func canonicalWords(t *testing.T, fixture string, n, limit int) []string {
	t.Helper()
	nfa, err := automata.UnmarshalString(fixture)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.New(nfa, n, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := inst.Enumerate(core.CursorOptions{Limit: limit, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var out []string
	for {
		w, ok := sess.Next()
		if !ok {
			break
		}
		out = append(out, inst.FormatWord(w))
	}
	if err := sess.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCountEndpoint(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})
	var resp Response
	if code := post(t, ts.Client(), ts.URL+"/v1/count", Request{Automaton: ulFixture, N: intPtr(10)}, nil, &resp); code != http.StatusOK {
		t.Fatalf("count: status %d", code)
	}
	if resp.Class != "RelationUL" || resp.Count != "1024" || resp.Exact == nil || !*resp.Exact {
		t.Fatalf("count: got %+v, want exact 1024 RelationUL", resp)
	}

	// Range form: sum over lengths 0..3 = 1+2+4+8 = 15.
	if code := post(t, ts.Client(), ts.URL+"/v1/count", Request{Automaton: ulFixture, Lo: intPtr(0), Hi: intPtr(3)}, nil, &resp); code != http.StatusOK {
		t.Fatalf("count range: status %d", code)
	}
	if resp.Count != "15" {
		t.Fatalf("count range: got %q, want 15", resp.Count)
	}

	// NL approximate count must be within FPRAS error of 2^8 = 256.
	if code := post(t, ts.Client(), ts.URL+"/v1/count", Request{Automaton: nlFixture, N: intPtr(8)}, nil, &resp); code != http.StatusOK {
		t.Fatalf("count nl: status %d", code)
	}
	if resp.Class != "RelationNL" || resp.Count == "" {
		t.Fatalf("count nl: got %+v", resp)
	}
}

func TestEnumPaginationMatchesCanonical(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})
	want := canonicalWords(t, ulFixture, 6, 0) // all 64 words

	var got []string
	cursor := ""
	pages := 0
	for {
		var resp Response
		req := Request{Automaton: ulFixture, N: intPtr(6), Limit: 7, Cursor: cursor}
		if code := post(t, ts.Client(), ts.URL+"/v1/enum", req, nil, &resp); code != http.StatusOK {
			t.Fatalf("enum page %d: status %d", pages, code)
		}
		got = append(got, resp.Words...)
		pages++
		if resp.Done {
			break
		}
		if resp.Token == "" {
			t.Fatalf("page %d not done but no token", pages)
		}
		if !strings.HasPrefix(resp.Token, "el1:") {
			t.Fatalf("token %q is not an el1: cursor", resp.Token)
		}
		cursor = resp.Token
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("paged transcript diverges from canonical:\ngot  %v\nwant %v", got, want)
	}
	if pages < 64/7 {
		t.Fatalf("suspiciously few pages: %d", pages)
	}
}

func TestEnumSeekAndRange(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})

	// Seek to rank 60 of 64: expect the last 4 words.
	want := canonicalWords(t, ulFixture, 6, 0)[60:]
	var resp Response
	req := Request{Automaton: ulFixture, N: intPtr(6), Seek: "60", Limit: 10}
	if code := post(t, ts.Client(), ts.URL+"/v1/enum", req, nil, &resp); code != http.StatusOK {
		t.Fatalf("enum seek: status %d", code)
	}
	if fmt.Sprint(resp.Words) != fmt.Sprint(want) || !resp.Done {
		t.Fatalf("enum seek: got %v (done=%v), want %v", resp.Words, resp.Done, want)
	}

	// Range form pages across length boundaries with el1:R: tokens, and a
	// resume request needs no lo/hi at all — the token carries the range.
	var all []string
	cursor := ""
	for {
		var page Response
		req := Request{Automaton: ulFixture, Limit: 3, Cursor: cursor}
		if cursor == "" {
			req.Lo, req.Hi = intPtr(0), intPtr(3)
		}
		if code := post(t, ts.Client(), ts.URL+"/v1/enum", req, nil, &page); code != http.StatusOK {
			t.Fatalf("enum range: status %d", code)
		}
		all = append(all, page.Words...)
		if page.Done {
			break
		}
		cursor = page.Token
	}
	if len(all) != 15 {
		t.Fatalf("range enum over [0,3]: got %d words, want 15: %v", len(all), all)
	}
}

func TestSampleRankUnrank(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})

	// Seeded sampling is reproducible.
	var a, b Response
	req := Request{Automaton: ulFixture, N: intPtr(12), Samples: 5, Seed: 42}
	if code := post(t, ts.Client(), ts.URL+"/v1/sample", req, nil, &a); code != http.StatusOK {
		t.Fatalf("sample: status %d", code)
	}
	if code := post(t, ts.Client(), ts.URL+"/v1/sample", req, nil, &b); code != http.StatusOK {
		t.Fatalf("sample: status %d", code)
	}
	if len(a.Words) != 5 || fmt.Sprint(a.Words) != fmt.Sprint(b.Words) {
		t.Fatalf("seeded sample not reproducible: %v vs %v", a.Words, b.Words)
	}

	// Rank/unrank roundtrip on the chain: "aba" is rank 0 of L_3.
	var r Response
	word := "aba"
	if code := post(t, ts.Client(), ts.URL+"/v1/rank", Request{Automaton: chainFixture, N: intPtr(3), Word: &word}, nil, &r); code != http.StatusOK {
		t.Fatalf("rank: status %d", code)
	}
	if r.Rank != "0" {
		t.Fatalf("rank(aba) = %q, want 0", r.Rank)
	}
	var u Response
	if code := post(t, ts.Client(), ts.URL+"/v1/unrank", Request{Automaton: chainFixture, N: intPtr(3), Rank: "0"}, nil, &u); code != http.StatusOK {
		t.Fatalf("unrank: status %d", code)
	}
	if u.Word == nil || *u.Word != "aba" {
		t.Fatalf("unrank(0) = %v, want aba", u.Word)
	}

	// Empty witness set answers ⊥, not an error.
	var e Response
	if code := post(t, ts.Client(), ts.URL+"/v1/sample", Request{Automaton: chainFixture, N: intPtr(5)}, nil, &e); code != http.StatusOK {
		t.Fatalf("sample empty: status %d", code)
	}
	if !e.Empty {
		t.Fatalf("sample on empty slice: got %+v, want empty=true", e)
	}
}

func TestAdmissionRejects422BeforePrecompute(t *testing.T) {
	leakcheck.Check(t)
	free, err := admission.Parse("length=64")
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{
		TenantLimits: map[string]*admission.Limits{"free": free},
	})

	// A length-2^30 request under a length-64 policy must bounce at
	// admission: if the server precomputed first, a layer-sized allocation
	// of a billion entries would blow the test host long before 422.
	var eb ErrorBody
	req := Request{Automaton: ulFixture, N: intPtr(1 << 30)}
	code := post(t, ts.Client(), ts.URL+"/v1/enum", req, map[string]string{"X-Tenant": "free"}, &eb)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("over-limit request: status %d, want 422", code)
	}
	if !strings.Contains(eb.Error, "length") {
		t.Fatalf("rejection should name the tripped limit, got %q", eb.Error)
	}

	// The same request from an unlimited tenant is admitted (and rejected
	// only by sanity, not policy) — prove the limits are per-tenant by
	// sending an in-policy request instead.
	var resp Response
	ok := Request{Automaton: ulFixture, N: intPtr(8), Limit: 4}
	if code := post(t, ts.Client(), ts.URL+"/v1/enum", ok, map[string]string{"X-Tenant": "paid"}, &resp); code != http.StatusOK {
		t.Fatalf("in-policy request from other tenant: status %d", code)
	}
	if got := srv.rejections.Load(); got != 1 {
		t.Fatalf("rejections counter = %d, want 1", got)
	}
}

// TestEnumBytesLimitRejects422 pins that a RelationUL enumeration page
// passes the tenant's bytes= check: it opens on the counting index, so a
// cap below the index estimate answers 422 before any build.
func TestEnumBytesLimitRejects422(t *testing.T) {
	leakcheck.Check(t)
	tight, err := admission.Parse("bytes=1")
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{TenantLimits: map[string]*admission.Limits{"tight": tight}})
	var eb ErrorBody
	req := Request{Automaton: ulFixture, N: intPtr(8), Limit: 4}
	if code := post(t, ts.Client(), ts.URL+"/v1/enum", req, map[string]string{"X-Tenant": "tight"}, &eb); code != http.StatusUnprocessableEntity {
		t.Fatalf("enum page under bytes=1: status %d, want 422", code)
	}
	if !strings.Contains(eb.Error, "index footprint") {
		t.Fatalf("rejection should name the byte limit, got %q", eb.Error)
	}
	if st := srv.cache.Stats(); st.Builds != 0 {
		t.Fatalf("a rejected enum page built %d indexes", st.Builds)
	}
}

// TestStateLimitRejects422BeforeStateSizedAllocation pins that the
// tenant's state limit runs before the parser sizes anything from the
// untrusted states: header. The 43-byte body declares 10⁶ states (kept
// this small so the test cannot exhaust memory when the order is wrong:
// building that automaton's tables takes over 100 MB); it must bounce
// with 422 having allocated under 1 MB.
func TestStateLimitRejects422BeforeStateSizedAllocation(t *testing.T) {
	leakcheck.Check(t)
	srv := New(Config{Limits: &admission.Limits{MaxStates: 1024}})
	body, err := json.Marshal(Request{Automaton: "alphabet: a b c d\nstates: 1000000\nstart: 0\n", N: intPtr(8)})
	if err != nil {
		t.Fatal(err)
	}
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/count", bytes.NewReader(body)))
		return rec
	}
	serve() // first-use setup off the books
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := serve()
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("over-limit states: status %d (%s), want 422", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "states") {
		t.Fatalf("rejection should name the tripped limit, got %s", rec.Body.String())
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("rejected request allocated %d bytes, want under 1 MB", d)
	}
}

func TestTimeoutReturnsCheckpointAndResumes(t *testing.T) {
	leakcheck.Check(t)
	srv, ts := newTestServer(t, Config{})

	// A 25ms deadline against a 2^120-word stream always lands mid-page:
	// the body must carry the partial page plus the checkpoint after it.
	var eb ErrorBody
	req := Request{Automaton: ulFixture, N: intPtr(120), Limit: 1 << 30, TimeoutMS: 25}
	code := post(t, ts.Client(), ts.URL+"/v1/enum", req, nil, &eb)
	if code != http.StatusRequestTimeout {
		t.Fatalf("deadline mid-stream: status %d, want 408", code)
	}
	if eb.Token == "" || !strings.HasPrefix(eb.Token, "el1:") {
		t.Fatalf("408 body has no checkpoint token: %+v", eb.Error)
	}
	if srv.checkpoints.Load() == 0 {
		t.Fatal("checkpoints counter did not move")
	}

	// Resume without a deadline: partial page + resumed page must be the
	// canonical prefix, bitwise.
	var resp Response
	resume := Request{Automaton: ulFixture, N: intPtr(120), Cursor: eb.Token, Limit: 20}
	if code := post(t, ts.Client(), ts.URL+"/v1/enum", resume, nil, &resp); code != http.StatusOK {
		t.Fatalf("resume from checkpoint: status %d", code)
	}
	got := append(append([]string{}, eb.Words...), resp.Words...)
	want := canonicalWords(t, ulFixture, 120, len(got))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("checkpoint resume diverges after %d partial words", len(eb.Words))
	}
}

// TestCrossReplicaResume pages one stream alternating between two nfad
// replicas that share nothing but the tokens (separate servers, separate
// caches), and asserts the interleaved transcript is bitwise equal to one
// uninterrupted serial enumeration — at the natural limb width
// ("fast-tier") and with the width forced to three limbs ("big-tier",
// the wide arithmetic that replaced the big.Int tier). Each run uses
// fresh caches.
func TestCrossReplicaResume(t *testing.T) {
	leakcheck.Check(t)
	defer limb.ForceWidth(limb.ForceWidth(1))

	for _, width := range []int{1, 3} {
		name := "fast-tier"
		if width > 1 {
			name = "big-tier"
		}
		t.Run(name, func(t *testing.T) {
			limb.ForceWidth(width)
			_, tsA := newTestServer(t, Config{Cache: instcache.New(instcache.DefaultBudget)})
			_, tsB := newTestServer(t, Config{Cache: instcache.New(instcache.DefaultBudget)})
			replicas := []*httptest.Server{tsA, tsB}

			for _, tc := range []struct {
				fixture string
				n       int
				total   int
			}{
				{ulFixture, 6, 64},
				{nlFixture, 5, 32},
			} {
				want := canonicalWords(t, tc.fixture, tc.n, 0)
				if len(want) != tc.total {
					t.Fatalf("canonical |L_%d| = %d, want %d", tc.n, len(want), tc.total)
				}
				var got []string
				cursor := ""
				for page := 0; ; page++ {
					ts := replicas[page%2] // alternate replicas every page
					var resp Response
					req := Request{Automaton: tc.fixture, N: intPtr(tc.n), Limit: 5, Cursor: cursor}
					if code := post(t, ts.Client(), ts.URL+"/v1/enum", req, nil, &resp); code != http.StatusOK {
						t.Fatalf("page %d on replica %d: status %d", page, page%2, code)
					}
					got = append(got, resp.Words...)
					if resp.Done {
						break
					}
					cursor = resp.Token
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("interleaved transcript diverges from serial:\ngot  %v\nwant %v", got, want)
				}
			}
		})
	}
}

func TestStatsEndpoint(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})

	// Ranked access resolves through the compiled-index cache (as UL
	// enum pages do): one build, then hits — across requests and across
	// tenants, since entries key on the automaton's canonical identity,
	// not on who posted it.
	var warm Response
	req := Request{Automaton: ulFixture, N: intPtr(8), Rank: "17"}
	for i := 0; i < 3; i++ {
		if code := post(t, ts.Client(), ts.URL+"/v1/unrank", req, map[string]string{"X-Tenant": fmt.Sprint(i)}, &warm); code != http.StatusOK {
			t.Fatalf("warm request %d: status %d", i, code)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Requests < 3 {
		t.Fatalf("stats.requests = %d, want >= 3", stats.Requests)
	}
	if stats.Cache.Builds != 1 || stats.Cache.Hits < 2 {
		t.Fatalf("cache should have built once and hit twice: %+v", stats.Cache)
	}
	if len(stats.Entries) != 1 || stats.Entries[0].Bytes <= 0 {
		t.Fatalf("per-entry stats missing or unsized: %+v", stats.Entries)
	}
}

func TestBadRequests(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		req  Request
		want int
	}{
		{"missing automaton", Request{N: intPtr(4)}, http.StatusBadRequest},
		{"missing length", Request{Automaton: ulFixture}, http.StatusBadRequest},
		{"n and range", Request{Automaton: ulFixture, N: intPtr(4), Lo: intPtr(1), Hi: intPtr(2)}, http.StatusBadRequest},
		{"inverted range", Request{Automaton: ulFixture, Lo: intPtr(5), Hi: intPtr(2)}, http.StatusBadRequest},
		{"garbage automaton", Request{Automaton: "not an automaton", N: intPtr(4)}, http.StatusBadRequest},
	} {
		var eb ErrorBody
		if code := post(t, ts.Client(), ts.URL+"/v1/enum", tc.req, nil, &eb); code != tc.want {
			t.Errorf("%s: status %d, want %d (error %q)", tc.name, code, tc.want, eb.Error)
		}
	}

	// Rank on an ambiguous NFA is a 400 (endpoint/class mismatch), and a
	// bad cursor is a 400 (fingerprint mismatch), never a 5xx.
	word := "00"
	var eb ErrorBody
	if code := post(t, ts.Client(), ts.URL+"/v1/rank", Request{Automaton: nlFixture, N: intPtr(2), Word: &word}, nil, &eb); code != http.StatusBadRequest {
		t.Errorf("rank on NL: status %d, want 400", code)
	}
	if code := post(t, ts.Client(), ts.URL+"/v1/enum", Request{Automaton: ulFixture, N: intPtr(4), Cursor: "el1:u:bogus"}, nil, &eb); code != http.StatusBadRequest {
		t.Errorf("bogus cursor: status %d, want 400", code)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/enum")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on problem endpoint: status %d, want 405", resp.StatusCode)
	}
}
