package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/automata"
	"repro/internal/enumerate"
)

// E16WorkStealing measures the work-stealing shard scheduler against the
// static fan-out on the SkewedDensity family, whose mass concentrates in
// the lexicographically last prefix cell (the adversarial case for static
// sharding: one worker drains ≈78% of the language alone while the others
// idle). Every parallel drain runs the ordered merge under a fixed
// MergeBudget and is verified bitwise against the serial sequence; the
// table also records the scheduler's steal/spill counters and the peak
// buffered-word count, which must never exceed the budget. On a
// single-core host the static/steal wall-clock ratio converges to 1 —
// stealing can only win where there are cores to keep busy.
func E16WorkStealing(quick bool) *Table {
	t := &Table{
		ID:     "E16",
		Title:  "Work-stealing vs static sharding on a mass-skewed language (ordered merge = serial order)",
		Header: []string{"mode", "workers", "cells", "steals", "spills(s/h)", "peak/budget", "time", "speedup", "words"},
	}
	k, length, budget := 4, 20, 512
	if quick {
		k, length, budget = 4, 16, 256
	}
	nfa := automata.SkewedDensity(k)

	// Reference sequence (untimed: retaining 83k strings is not part of
	// any drain being compared).
	se, err := enumerate.NewNFA(nfa, length)
	if err != nil {
		t.Notes = append(t.Notes, "setup failed: "+err.Error())
		return t
	}
	var serialWords []string
	for {
		w, ok := se.Next()
		if !ok {
			break
		}
		serialWords = append(serialWords, nfa.Alphabet().FormatWord(w))
	}
	// Timed serial baseline: build + drain + format, retaining nothing,
	// exactly the work the parallel rows do per word.
	serialStart := time.Now()
	se2, err := enumerate.NewNFA(nfa, length)
	if err != nil {
		t.Notes = append(t.Notes, "setup failed: "+err.Error())
		return t
	}
	serialCount := 0
	for {
		w, ok := se2.Next()
		if !ok {
			break
		}
		if nfa.Alphabet().FormatWord(w) != serialWords[serialCount] {
			t.Notes = append(t.Notes, "serial re-drain mismatch")
		}
		serialCount++
	}
	serialTime := time.Since(serialStart)
	t.AddRow("serial", "1", "1", "-", "-", "-", ms(serialTime), "1.00x", fmt.Sprint(serialCount))

	run := func(mode string, workers, stealThreshold int, ordered bool) {
		start := time.Now()
		st, err := enumerate.NewNFAStream(nfa, length, enumerate.StreamOptions{
			Workers: workers, Shards: 4 * workers, Ordered: ordered,
			MergeBudget: budget, StealThreshold: stealThreshold,
		})
		if err != nil {
			t.AddRow(mode, fmt.Sprint(workers), "-", "-", "-", "-", "err:"+err.Error(), "-", "-")
			return
		}
		count, mismatch := 0, false
		for {
			word, ok := st.Next()
			if !ok {
				break
			}
			formatted := nfa.Alphabet().FormatWord(word)
			if ordered && count < len(serialWords) && formatted != serialWords[count] {
				mismatch = true
			}
			count++
		}
		st.Close()
		d := time.Since(start)
		stats := st.Stats()
		words := fmt.Sprint(count)
		if count != len(serialWords) {
			words += " (INCOMPLETE!)"
		} else if mismatch {
			words += " (MISMATCH vs serial!)"
		}
		peak := fmt.Sprintf("%d/%d", stats.PeakBuffered, stats.MergeBudget)
		if stats.PeakBuffered > stats.MergeBudget {
			peak += " (OVER BUDGET!)"
		}
		t.AddRow(mode, fmt.Sprint(workers), fmt.Sprint(len(stats.Cells)),
			fmt.Sprint(stats.Steals), fmt.Sprintf("%d/%d", stats.SoftSpills, stats.HardSpills),
			peak, ms(d), fmt.Sprintf("%.2fx", float64(serialTime)/float64(d)), words)
	}

	// One untimed parallel drain first: the measured rows must not fold in
	// one-time warm-up costs (scheduler allocation, cache warming).
	if st, err := enumerate.NewNFAStream(nfa, length, enumerate.StreamOptions{
		Workers: 4, Shards: 16, Ordered: true, MergeBudget: budget,
	}); err == nil {
		for {
			if _, ok := st.Next(); !ok {
				break
			}
		}
		st.Close()
	}

	workerCounts := []int{4}
	if g := runtime.GOMAXPROCS(0); g != 4 && !quick {
		workerCounts = append(workerCounts, g)
	}
	for _, w := range workerCounts {
		run("static(ordered)", w, math.MaxInt, true)
		run("steal(ordered)", w, 0, true)
	}
	run("steal(unordered)", workerCounts[0], 0, false)

	t.Notes = append(t.Notes,
		fmt.Sprintf("GOMAXPROCS=%d; SkewedDensity(%d) at n=%d: the 1…1 prefix cell holds ~78%% of the %d words",
			runtime.GOMAXPROCS(0), k, length, len(serialWords)),
		"acceptance: steal(ordered) ≥ 1.5x static(ordered) at 4 workers on ≥ 4 real cores; peak never exceeds the budget")
	return t
}
