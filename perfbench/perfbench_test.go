package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// tinyRun runs one workload at self-test sizes with every check on.
func tinyRun(t *testing.T, workload string, trace bool, tamper func(string, []byte) []byte) *result {
	t.Helper()
	cfg := config{
		workload:  workload,
		seed:      3,
		window:    300 * time.Millisecond,
		trace:     trace,
		tiny:      true,
		setupReps: 1,
		root:      "..",
		tamper:    tamper,
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := run(ctx, cfg, io.Discard, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if res.Attempted == 0 {
		t.Fatalf("%s: no request attempted", workload)
	}
	return res
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json lists.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(spec.Workload) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want at least 2", len(spec.Workload))
	}
	for _, w := range spec.Workload {
		if !slices.Contains(workloadNames, w.Name) {
			t.Fatalf("BENCHMARK.json workload %q is not one of %v", w.Name, workloadNames)
		}
	}
	return endToEnd, perLayer
}

func sameMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, name)
		case m.Unit != unit:
			t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", what, name, m.Value)
		}
	}
}

// TestSmokeAllWorkloads runs every workload untraced and traced at tiny
// sizes: every check passes, every mirrored answer equals nfad's, the
// metrics are exactly the ones BENCHMARK.json lists, and the module
// shares plus the residual sum to 1.
func TestSmokeAllWorkloads(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res := tinyRun(t, w, false, nil)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("untraced: %d of %d failed", res.Failed, res.Attempted)
			}
			sameMetrics(t, "untraced", res.Metrics, endToEnd)
			if v := res.Metrics["heap_live_mb"].Value; v <= 0 {
				t.Errorf("heap_live_mb = %v, want > 0", v)
			}

			res = tinyRun(t, w, true, nil)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: %d of %d failed", res.Failed, res.Attempted)
			}
			sameMetrics(t, "traced", res.Metrics, perLayer)
			sum := 0.0
			for name, m := range res.Metrics {
				if strings.HasSuffix(name, "share") && name != "go.gc_cpu_share" {
					sum += m.Value
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("module shares + residual = %v, want 1", sum)
			}
		})
	}
}

// TestCorruptAnswerIsCaught corrupts answers on their way to the checks:
// a word of an enum page (caught by the transcript check after the
// window) and a count (caught on arrival). Both count as failed requests
// and make the run incorrect.
func TestCorruptAnswerIsCaught(t *testing.T) {
	for _, tc := range []struct {
		workload, path, from, to string
	}{
		{wEnumPages, "/v1/enum", `"words":["a`, `"words":["b`},
		{wRanked, "/v1/count", `"count":"`, `"count":"9`},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			var done atomic.Bool // the clients call tamper concurrently
			res := tinyRun(t, tc.workload, false, func(path string, body []byte) []byte {
				if path != tc.path || !bytes.Contains(body, []byte(tc.from)) || !done.CompareAndSwap(false, true) {
					return body
				}
				return bytes.Replace(body, []byte(tc.from), []byte(tc.to), 1)
			})
			if !done.Load() {
				t.Fatalf("no %s answer to corrupt", tc.path)
			}
			if res.Correct || res.Failed != 1 {
				t.Fatalf("corrupted answer: correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
			}
		})
	}
}

// TestTailPercentile checks the tail rule: the highest percentile with at
// least ten samples beyond it, p99 from 1000 samples on.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantIdx int // 0-based rank of the tail among 1..n ms
		wantPct float64
	}{
		{5, 4, 100},
		{11, 0, 100 * 1.0 / 11},
		{100, 89, 90},
		{500, 489, 98},
		{1000, 989, 99},
		{2000, 1979, 99},
	} {
		lat := make([]time.Duration, tc.n)
		for i := range lat {
			lat[i] = time.Duration(tc.n-i) * time.Millisecond // unsorted on purpose
		}
		_, tail, pct := percentiles(lat)
		if tail != time.Duration(tc.wantIdx+1)*time.Millisecond || math.Abs(pct-tc.wantPct) > 1e-9 {
			t.Errorf("n=%d: tail %v at p%g, want %v at p%g", tc.n, tail, pct, time.Duration(tc.wantIdx+1)*time.Millisecond, tc.wantPct)
		}
	}
}

// TestCLIRejectsBadUsage checks that usage errors exit non-zero and print
// no result.
func TestCLIRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", wRanked, "--trace", "2"},
		{"--workload", wRanked, "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code := cli(args, &out, io.Discard); code == 0 || strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}
