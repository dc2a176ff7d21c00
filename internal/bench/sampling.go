package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/automata"
	"repro/internal/sample"
)

// E17SamplerThroughput sweeps the exact uniform sampler on the
// BenchmarkSampleUFA workload (a 64-state depth-20 random UFA): the
// rank-space draw (one uniform rank + one prefix-sum binary search), the
// allocation-free draw session, the chunked parallel batch at 1 and 4
// workers (verified bitwise identical), and the without-replacement
// overhead of SampleDistinctAt, all on one counting index. Speedups are
// relative to indexed/draw. The per-draw completion-count walk the index
// replaced is gone; ROADMAP's performance trajectory keeps its numbers
// (row 4). On a single-core host the worker sweep measures scheduling
// overhead only; the per-draw rows are machine-independent ratios.
func E17SamplerThroughput(quick bool) *Table {
	t := &Table{
		ID:     "E17",
		Title:  "Exact uniform sampling on the rank-space index (one shared counting index)",
		Header: []string{"sampler", "draws", "total", "time/draw", "speedup", "check"},
	}
	states, depth, draws := 64, 20, 20000
	if quick {
		states, depth, draws = 32, 16, 5000
	}
	rng := rand.New(rand.NewSource(17))
	dfa := automata.RandomDFA(rng, automata.Binary(), states, 0.5)

	idx, err := sample.NewUFASampler(dfa, depth)
	if err != nil {
		t.Notes = append(t.Notes, "setup failed: "+err.Error())
		return t
	}
	if idx.TotalRange().Sign() == 0 {
		t.Notes = append(t.Notes, "empty language slice; nothing to sample")
		return t
	}

	var indexedTime time.Duration
	speedup := func(d time.Duration) string {
		if indexedTime > 0 && d > 0 {
			return fmt.Sprintf("%.2fx", float64(indexedTime)/float64(d))
		}
		return "-"
	}
	row := func(name string, n int, run func(draw *rand.Rand) error) {
		draw := rand.New(rand.NewSource(18))
		start := time.Now()
		err := run(draw)
		d := time.Since(start)
		check := "ok"
		if err != nil {
			check = "err:" + err.Error()
		}
		if name == "indexed/draw" {
			indexedTime = d
		}
		t.AddRow(name, fmt.Sprint(n), ms(d), us(d/time.Duration(n)), speedup(d), check)
	}

	row("indexed/draw", draws, func(draw *rand.Rand) error {
		for i := 0; i < draws; i++ {
			if _, err := idx.Sample(draw); err != nil {
				return err
			}
		}
		return nil
	})
	row("session/draw", draws, func(draw *rand.Rand) error {
		d := idx.NewDrawSession(draw)
		for i := 0; i < draws; i++ {
			if _, err := d.Sample(); err != nil {
				return err
			}
		}
		return nil
	})

	// Batch path: the chunked parallel sampler must be bitwise identical
	// at every worker count; the check column verifies 4 workers against 1.
	var base []automata.Word
	row("many/1worker", draws, func(*rand.Rand) error {
		ws, err := idx.SampleMany(18, 0xE17, draws, 1)
		base = ws
		return err
	})
	start := time.Now()
	par4, err := idx.SampleMany(18, 0xE17, draws, 4)
	d := time.Since(start)
	check := "bitwise = 1worker"
	if err != nil {
		check = "err:" + err.Error()
	} else {
		for i := range par4 {
			if dfa.Alphabet().FormatWord(par4[i]) != dfa.Alphabet().FormatWord(base[i]) {
				check = "MISMATCH vs 1 worker!"
				break
			}
		}
	}
	t.AddRow("many/4workers", fmt.Sprint(draws), ms(d), us(d/time.Duration(draws)), speedup(d), check)

	// Without-replacement: k distinct draws per round vs k independent
	// draws (rank-space rejection overhead).
	kDistinct := 16
	rounds := draws / kDistinct
	row(fmt.Sprintf("distinct/k=%d", kDistinct), rounds*kDistinct, func(draw *rand.Rand) error {
		for i := 0; i < rounds; i++ {
			ws, err := idx.SampleDistinctAt(depth, kDistinct, draw)
			if err != nil {
				return err
			}
			seen := map[string]bool{}
			for _, w := range ws {
				f := dfa.Alphabet().FormatWord(w)
				if seen[f] {
					return fmt.Errorf("duplicate %q in distinct draw", f)
				}
				seen[f] = true
			}
		}
		return nil
	})

	t.Notes = append(t.Notes,
		fmt.Sprintf("m=%d states, n=%d, |L_n| has %d bits; one counting index serves every row", states, depth, idx.TotalRange().BitLen()),
		"expected shape: session/draw at or above indexed/draw (scratch reuse, zero allocations per draw; see BenchmarkSampleUFA)",
		"acceptance: many/4workers bitwise-equal to many/1worker on any machine; speedup over 1worker needs real cores")
	return t
}
