package automata

import (
	"math/big"
	"math/rand"
	"strconv"
)

// This file holds the instance generators used by tests and the benchmark
// harness: uniform random NFAs plus the structured families that the paper's
// discussion motivates (the exponential-ambiguity family behind §6.1's
// variance argument, the subset-blowup family, and plain chains/unions used
// as easy UFA inputs).

// Random returns a random ε-free NFA with m states and the given alphabet.
// Each (state, symbol) pair receives a successor with probability density,
// drawn uniformly; state 0 is the start and each state is final with
// probability finalProb (at least one final state is forced). The result is
// not trimmed, mirroring arbitrary user input.
func Random(rng *rand.Rand, alpha *Alphabet, m int, density, finalProb float64) *NFA {
	if m <= 0 {
		panic("automata: Random needs at least one state")
	}
	n := New(alpha, m)
	n.SetStart(0)
	for q := 0; q < m; q++ {
		for a := 0; a < alpha.Size(); a++ {
			for p := 0; p < m; p++ {
				if rng.Float64() < density {
					n.AddTransition(q, a, p)
				}
			}
		}
		if rng.Float64() < finalProb {
			n.SetFinal(q, true)
		}
	}
	if len(n.Finals()) == 0 {
		n.SetFinal(rng.Intn(m), true)
	}
	return n
}

// RandomLayered returns a random automaton whose states are arranged in
// layers with edges only between consecutive layers, so every accepted
// string has length exactly layers. width states per layer; each
// (state, symbol) pair has between 1 and maxFanout successors in the next
// layer. Layered automata are the natural shape of unrolled logspace
// transducers (Lemma 13) and are heavily used by the benchmarks.
func RandomLayered(rng *rand.Rand, alpha *Alphabet, layers, width, maxFanout int) *NFA {
	if layers < 1 || width < 1 || maxFanout < 1 {
		panic("automata: RandomLayered bad parameters")
	}
	total := 1 + layers*width
	n := New(alpha, total)
	n.SetStart(0)
	state := func(layer, j int) int { return 1 + (layer-1)*width + j }
	for a := 0; a < alpha.Size(); a++ {
		fan := 1 + rng.Intn(maxFanout)
		for f := 0; f < fan; f++ {
			n.AddTransition(0, a, state(1, rng.Intn(width)))
		}
	}
	for l := 1; l < layers; l++ {
		for j := 0; j < width; j++ {
			for a := 0; a < alpha.Size(); a++ {
				fan := 1 + rng.Intn(maxFanout)
				for f := 0; f < fan; f++ {
					n.AddTransition(state(l, j), a, state(l+1, rng.Intn(width)))
				}
			}
		}
	}
	for j := 0; j < width; j++ {
		if rng.Float64() < 0.5 {
			n.SetFinal(state(layers, j), true)
		}
	}
	if len(n.Finals()) == 0 {
		n.SetFinal(state(layers, rng.Intn(width)), true)
	}
	return n
}

// RandomDFA returns a random complete DFA with m states over alpha. DFAs
// are unambiguous by construction, so this is the easy generator for
// MEM-UFA instances.
func RandomDFA(rng *rand.Rand, alpha *Alphabet, m int, finalProb float64) *NFA {
	n := New(alpha, m)
	n.SetStart(0)
	for q := 0; q < m; q++ {
		for a := 0; a < alpha.Size(); a++ {
			n.AddTransition(q, a, rng.Intn(m))
		}
		if rng.Float64() < finalProb {
			n.SetFinal(q, true)
		}
	}
	if len(n.Finals()) == 0 {
		n.SetFinal(rng.Intn(m), true)
	}
	return n
}

// AmbiguityGap returns the adversarial family from the paper's §6.1
// discussion: a binary NFA on which the naive Monte-Carlo path estimator has
// exponential variance. It is the union of
//
//   - a deterministic chain accepting every string in {0,1}^depth
//     (one accepting run per string), and
//   - a 2-wide nondeterministic ladder accepting only 0^depth with 2^depth
//     accepting runs.
//
// |L_depth| = 2^depth, but about half of all accepting *paths* are runs of
// the single string 0^depth, so sampling paths uniformly and reweighting
// massively underestimates the count.
func AmbiguityGap(depth int) *NFA {
	if depth < 1 {
		panic("automata: AmbiguityGap needs depth ≥ 1")
	}
	alpha := Binary()
	// States: 0 start; chain 1..depth; ladder (depth+1) .. (depth+2*depth):
	// two per level. A shared final state ends both branches.
	n := New(alpha, 1+depth+2*depth+1)
	n.SetStart(0)
	chain := func(i int) int { return i } // chain level i reached after i symbols, i in 1..depth
	lad := func(i, j int) int { return depth + 2*(i-1) + j + 1 }
	final := depth + 2*depth + 1
	n.SetFinal(final, true)

	// Chain branch: level i-1 -> level i on both bits.
	for i := 1; i < depth; i++ {
		n.AddTransition(chain(i), 0, chain(i+1))
		n.AddTransition(chain(i), 1, chain(i+1))
	}
	if depth == 1 {
		n.AddTransition(0, 0, final)
		n.AddTransition(0, 1, final)
	} else {
		n.AddTransition(0, 0, chain(1))
		n.AddTransition(0, 1, chain(1))
		n.AddTransition(chain(depth-1), 0, final)
		n.AddTransition(chain(depth-1), 1, final)
	}

	// Ladder branch: both states of level i go to both states of level i+1
	// on 0 only; start feeds both level-1 states on 0.
	if depth >= 2 {
		n.AddTransition(0, 0, lad(1, 0))
		n.AddTransition(0, 0, lad(1, 1))
		for i := 1; i < depth-1; i++ {
			for j := 0; j < 2; j++ {
				n.AddTransition(lad(i, j), 0, lad(i+1, 0))
				n.AddTransition(lad(i, j), 0, lad(i+1, 1))
			}
		}
		for j := 0; j < 2; j++ {
			n.AddTransition(lad(depth-1, j), 0, final)
		}
	}
	return n
}

// AmbiguityGapWide generalizes AmbiguityGap with a ladder of the given
// width: the single string 0^depth has width^(depth-1) accepting runs, so
// for width ≥ 3 the accepting-path mass is exponentially concentrated on
// one string while |L_depth| = 2^depth. This is the regime where the naive
// Monte-Carlo path estimator of §6.1 collapses: almost every sampled path
// spells 0^depth, and the rare other paths carry exponential weights.
func AmbiguityGapWide(depth, width int) *NFA {
	if depth < 2 {
		panic("automata: AmbiguityGapWide needs depth ≥ 2")
	}
	if width < 1 {
		panic("automata: AmbiguityGapWide needs width ≥ 1")
	}
	alpha := Binary()
	// 0 start; chain 1..depth-1; ladder levels 1..depth-1 of `width`
	// states; shared final.
	chainStates := depth - 1
	ladderStates := (depth - 1) * width
	n := New(alpha, 1+chainStates+ladderStates+1)
	n.SetStart(0)
	chain := func(i int) int { return i } // i in 1..depth-1
	lad := func(i, j int) int { return chainStates + (i-1)*width + j + 1 }
	final := 1 + chainStates + ladderStates
	n.SetFinal(final, true)

	// Chain branch accepts everything.
	n.AddTransition(0, 0, chain(1))
	n.AddTransition(0, 1, chain(1))
	for i := 1; i < depth-1; i++ {
		n.AddTransition(chain(i), 0, chain(i+1))
		n.AddTransition(chain(i), 1, chain(i+1))
	}
	n.AddTransition(chain(depth-1), 0, final)
	n.AddTransition(chain(depth-1), 1, final)

	// Ladder branch accepts only 0^depth, with width^(depth-1) runs.
	for j := 0; j < width; j++ {
		n.AddTransition(0, 0, lad(1, j))
	}
	for i := 1; i < depth-1; i++ {
		for j := 0; j < width; j++ {
			for j2 := 0; j2 < width; j2++ {
				n.AddTransition(lad(i, j), 0, lad(i+1, j2))
			}
		}
	}
	for j := 0; j < width; j++ {
		n.AddTransition(lad(depth-1, j), 0, final)
	}
	return n
}

// SubsetBlowup returns the classical ambiguous blow-up language "some 1
// occurs with at least k-1 symbols after it" over {0,1}. The NFA has k+1
// states, guesses which 1 witnesses membership (so a string with j
// witnessing 1s has j accepting runs — ambiguous), and its determinization
// needs 2^(k-1) subset states to track the trailing window. For n ≥ k,
// |L_n| = 2^n − 2^(k−1).
func SubsetBlowup(k int) *NFA {
	if k < 1 {
		panic("automata: SubsetBlowup needs k ≥ 1")
	}
	alpha := Binary()
	// State 0 loops on both symbols; on 1 it may jump into a suffix chain of
	// length k; chain state k is final and loops on both symbols.
	n := New(alpha, k+1)
	n.SetStart(0)
	n.AddTransition(0, 0, 0)
	n.AddTransition(0, 1, 0)
	n.AddTransition(0, 1, 1)
	for i := 1; i < k; i++ {
		n.AddTransition(i, 0, i+1)
		n.AddTransition(i, 1, i+1)
	}
	n.AddTransition(k, 0, k)
	n.AddTransition(k, 1, k)
	n.SetFinal(k, true)
	return n
}

// Chain returns a deterministic chain automaton that accepts exactly the
// word w. A trivially unambiguous instance.
func Chain(alpha *Alphabet, w Word) *NFA {
	n := New(alpha, len(w)+1)
	n.SetStart(0)
	for i, a := range w {
		n.AddTransition(i, a, i+1)
	}
	n.SetFinal(len(w), true)
	return n
}

// All returns an automaton accepting Σ* (one looping state, final).
func All(alpha *Alphabet) *NFA {
	n := New(alpha, 1)
	n.SetStart(0)
	n.SetFinal(0, true)
	for a := 0; a < alpha.Size(); a++ {
		n.AddTransition(0, 0, 0)
		n.AddTransition(0, a, 0)
	}
	return n
}

// OverflowBoundary returns a single-state deterministic (hence trivially
// unambiguous) automaton over a fresh sigma-letter alphabet accepting every
// word, together with the straddle length: the least n such that the
// witness count sigma^n no longer fits in a uint64. Counting indexes built
// at or across the straddle must widen past one 64-bit limb, while
// indexes that stop one short of it stay one limb wide, so the family
// pins the exact 2^64 boundary for the cross-width differential suites. The
// closed forms make external checks cheap: the length-n slice counts
// sigma^n, and the rank of a word is its value read as an n-digit
// base-sigma numeral (symbol i is digit i).
func OverflowBoundary(sigma int) (*NFA, int) {
	if sigma < 2 {
		panic("automata: OverflowBoundary needs an alphabet of at least two symbols")
	}
	names := make([]string, sigma)
	for i := range names {
		names[i] = "s" + strconv.Itoa(i)
	}
	n := All(NewAlphabet(names...))
	// Straddle length: least n with sigma^n >= 2^64, found by exact
	// big.Int growth rather than float logs (4^32 == 2^64 exactly).
	wordCap := new(big.Int).Lsh(big.NewInt(1), 64)
	pow := big.NewInt(1)
	base := big.NewInt(int64(sigma))
	straddle := 0
	for pow.Cmp(wordCap) < 0 {
		pow.Mul(pow, base)
		straddle++
	}
	return n, straddle
}

// PaperExample returns the 7-state unambiguous NFA of Figure 1 of the
// paper, over the alphabet {a, b}, together with the word length (3) used
// in the worked example of §5.3.1. Its length-3 slice is
// {aaa, aab, bba, bbb}, matching the enumeration order of the worked
// example (aaa, then aab, then the b-branch). State q5 hangs off qF and is
// pruned from the Figure 2 DAG because it lies on no accepting path of
// length 3.
func PaperExample() (*NFA, int) {
	alpha := NewAlphabet("a", "b")
	a, b := 0, 1
	// States follow the figure: q0=0, q1=1, q2=2, q3=3, q4=4, qF=5, q5=6.
	n := New(alpha, 7)
	n.SetStart(0)
	n.SetFinal(5, true)
	n.AddTransition(0, a, 1)
	n.AddTransition(0, b, 2)
	n.AddTransition(1, a, 3)
	n.AddTransition(2, b, 4)
	n.AddTransition(3, a, 5)
	n.AddTransition(3, b, 5)
	n.AddTransition(4, a, 5)
	n.AddTransition(4, b, 5)
	n.AddTransition(5, a, 6)
	n.AddTransition(5, b, 6)
	return n, 3
}

// SkewedDensity returns a deterministic (hence unambiguous) automaton over
// {0,1} whose language is pathologically mass-skewed across prefix cells:
// the first k symbols are free, and a word whose k-prefix contains j ones
// must from then on repeat k-blocks whose first j positions are free and
// whose remaining k−j positions are 0. At witness length n the prefix 1^k
// therefore owns ≈ 2^(n−k) words while the prefix 0^k owns exactly one,
// with every intermediate density in between — and the skew recurs inside
// every cell, at every depth. Any static prefix partition of L_n is
// dominated by its densest cell (which also sorts last lexicographically),
// which is exactly the workload the work-stealing shard scheduler exists
// for; see BenchmarkEnumDelaySkewed and experiment E16.
func SkewedDensity(k int) *NFA {
	if k < 1 {
		panic("automata: SkewedDensity needs k ≥ 1")
	}
	alpha := Binary()
	// Prefix states (pos, ones) for pos in 0..k-1, ones ≤ pos, then k+1
	// block gadgets of k states each: gadget j cycles through positions
	// 0..k-1 with both symbols allowed at positions < j and only 0 after.
	prefixStates := k * (k + 1) / 2
	pre := func(pos, ones int) int { return pos*(pos+1)/2 + ones }
	gad := func(j, i int) int { return prefixStates + j*k + i }
	n := New(alpha, prefixStates+(k+1)*k)
	n.SetStart(pre(0, 0))
	for pos := 0; pos < k; pos++ {
		for ones := 0; ones <= pos; ones++ {
			q := pre(pos, ones)
			n.SetFinal(q, true)
			if pos < k-1 {
				n.AddTransition(q, 0, pre(pos+1, ones))
				n.AddTransition(q, 1, pre(pos+1, ones+1))
			} else {
				n.AddTransition(q, 0, gad(ones, 0))
				n.AddTransition(q, 1, gad(ones+1, 0))
			}
		}
	}
	for j := 0; j <= k; j++ {
		for i := 0; i < k; i++ {
			q := gad(j, i)
			n.SetFinal(q, true)
			n.AddTransition(q, 0, gad(j, (i+1)%k))
			if i < j {
				n.AddTransition(q, 1, gad(j, (i+1)%k))
			}
		}
	}
	return n
}
