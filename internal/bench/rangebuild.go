package bench

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/automata"
	"repro/internal/lengthrange"
)

// E18RangeBuild measures the cross-length sharing claim of
// internal/lengthrange on the E17 workload family (a 64-state depth-20
// random UFA): serving all lengths n in [lo, hi] from ONE shared
// backward sweep versus hi−lo+1 single-length [n, n] builds of the same
// index — wall time, cumulative allocations, and the per-length
// equivalence check —
// plus the steady-state range sampling rate (draw-session mode, zero
// allocations per draw). The shared build's tables are keyed by
// remaining length, so its cost tracks the single longest length rather
// than the sum over all lengths; the acceptance bar is ≥ 2× fewer
// allocations than the independent builds at N = 16 lengths.
func E18RangeBuild(quick bool) *Table {
	t := &Table{
		ID:     "E18",
		Title:  "Cross-length index: one shared backward sweep vs per-length [n, n] builds",
		Header: []string{"path", "lengths", "time", "allocs", "vs shared", "check"},
	}
	states, lo, hi := 64, 5, 20
	draws := 200000
	if quick {
		states, lo, hi = 32, 4, 12
		draws = 50000
	}
	rng := rand.New(rand.NewSource(17))
	dfa := automata.RandomDFA(rng, automata.Binary(), states, 0.5)
	nLens := hi - lo + 1

	// measure runs f once and returns (wall time, heap allocations).
	measure := func(f func()) (time.Duration, uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		f()
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		return d, after.Mallocs - before.Mallocs
	}

	var shared *lengthrange.RangeIndex
	sharedTime, sharedAllocs := measure(func() {
		var err error
		shared, err = lengthrange.Build(dfa, lo, hi, 1)
		if err != nil {
			panic(err)
		}
	})
	t.AddRow("shared sweep", fmt.Sprintf("%d..%d", lo, hi), ms(sharedTime),
		fmt.Sprint(sharedAllocs), "1.00x", "ok")

	var indep []*lengthrange.RangeIndex
	indepTime, indepAllocs := measure(func() {
		indep = make([]*lengthrange.RangeIndex, 0, nLens)
		for n := lo; n <= hi; n++ {
			idx, err := lengthrange.Build(dfa, n, n, 1)
			if err != nil {
				panic(err)
			}
			indep = append(indep, idx)
		}
	})
	// Per-length equivalence: every total must match the [n, n] index.
	check := "totals bitwise = [n, n]"
	mismatches := 0
	for n := lo; n <= hi; n++ {
		total, err := shared.TotalAt(n)
		if err != nil || total.Cmp(indep[n-lo].TotalRange()) != 0 {
			mismatches++
		}
	}
	if mismatches > 0 {
		check = fmt.Sprintf("%d LENGTH MISMATCHES!", mismatches)
	}
	ratio := "-"
	if sharedAllocs > 0 {
		ratio = fmt.Sprintf("%.2fx allocs", float64(indepAllocs)/float64(sharedAllocs))
	}
	t.AddRow(fmt.Sprintf("%d [n, n] builds", nLens), fmt.Sprintf("%d..%d", lo, hi),
		ms(indepTime), fmt.Sprint(indepAllocs), ratio, check)

	// Steady-state range sampling: one draw session, zero allocs per draw.
	if shared.TotalRange().Sign() > 0 {
		d := shared.NewDrawSession(rand.New(rand.NewSource(18)))
		drawTime, drawAllocs := measure(func() {
			for i := 0; i < draws; i++ {
				if _, err := d.Sample(); err != nil {
					panic(err)
				}
			}
		})
		perDraw := float64(drawAllocs) / float64(draws)
		drawCheck := fmt.Sprintf("%.3f allocs/draw", perDraw)
		if perDraw >= 1 {
			drawCheck += " (EXPECTED 0!)"
		}
		t.AddRow("session draws", fmt.Sprint(draws), ms(drawTime),
			fmt.Sprint(drawAllocs), fmt.Sprintf("%.0f draws/sec", float64(draws)/drawTime.Seconds()), drawCheck)

		// Worker-count bitwise reproducibility of the chunked batch.
		base, err1 := shared.SampleMany(18, 0xE18, 2048, 1)
		par4, err2 := shared.SampleMany(18, 0xE18, 2048, 4)
		batchCheck := "bitwise = 1worker"
		if err1 != nil || err2 != nil {
			batchCheck = "err"
		} else {
			for i := range base {
				if dfa.Alphabet().FormatWord(base[i]) != dfa.Alphabet().FormatWord(par4[i]) {
					batchCheck = "MISMATCH vs 1 worker!"
					break
				}
			}
		}
		t.AddRow("many/4workers", "2048", "-", "-", "-", batchCheck)
	}

	// Spot-check ranked access across a length boundary.
	if shared.TotalRange().Sign() > 0 {
		mid := new(big.Int).Rsh(shared.TotalRange(), 1)
		w, err := shared.UnrankRange(mid)
		spot := "rank∘unrank = id at mid-range"
		if err != nil {
			spot = "err:" + err.Error()
		} else if r, err := shared.RankRange(w); err != nil || r.Cmp(mid) != 0 {
			spot = "RANK/UNRANK MISMATCH!"
		}
		t.AddRow("unrank mid-range", "-", "-", "-", "-", spot)
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("m=%d states, %d lengths; the shared sweep's tables are keyed by remaining length, so its size tracks hi alone", states, nLens),
		"acceptance: [n, n] builds/shared ≥ 2x allocs at 16 lengths; session draws at 0 allocs/draw; totals bitwise = [n, n] per length")
	return t
}
