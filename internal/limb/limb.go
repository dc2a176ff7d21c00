// Package limb owns the count format of the exact counting index
// (internal/lengthrange) and of the single-length path-count DP behind
// exact.CountUFA (automata.CountPaths, which sweeps two k-limb rows): a
// count is k little-endian uint64 limbs, with the width k fixed per
// index or sweep. Path counts grow like
// |Σ|^n, so an index cannot know its width before it has counted; Fit
// runs a sweep at the narrowest width and, when an addition carries out
// of the top limb, reruns it at the width the aborted sweep says its
// counts need: the index sweep bounds the bit length of every count in
// floating point from the layer that carried (so counts needing three
// limbs get three), and a sweep with no bound of its own asks for twice
// the width. A width is whatever the counts need, not a power of two.
//
// A table of counts is a flat []uint64 of k-limb entries (entry i starts
// at limb i·k). The primitives below take one entry each, as a k-element
// slice; they are the only code with a case for a particular width (the
// k = 1 branches that keep the common one-word index about as fast as
// plain uint64 arithmetic).
//
// Draw consumes exactly the byte stream sample.RandBigInto consumes for
// the same bound, so every sample stream is identical at every width.
package limb

import (
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"sync/atomic"
)

// minWidth is the width Fit starts at (at least 1). Only ForceWidth sets
// it.
var minWidth atomic.Int32

func init() { minWidth.Store(1) }

// ForceWidth sets the width every later Fit starts at (values below 1
// mean 1) and returns the previous setting. It is a test hook: forcing a
// width above what the counts need must leave every index answer
// bitwise unchanged.
func ForceWidth(k int) (prev int) {
	if k < 1 {
		k = 1
	}
	return int(minWidth.Swap(int32(k)))
}

// Fit runs attempt at width k = ForceWidth's setting until it reports ok
// (no carry out of the top limb anywhere) or fails. An attempt that
// carries reports need, the bits its counts take as far as it can bound
// them; the next attempt runs at ⌈need/64⌉ limbs, or one limb wider when
// that is no wider than the attempt that carried.
func Fit(attempt func(k int) (ok bool, need int, err error)) error {
	for k := int(minWidth.Load()); ; {
		ok, need, err := attempt(k)
		if err != nil || ok {
			return err
		}
		k = max(k+1, (need+63)/64)
	}
}

// Scratch returns k zero limbs, backed by buf when they fit: a caller's
// fixed-size array keeps the one-shot scratch of the common widths off
// the heap.
func Scratch(buf []uint64, k int) []uint64 {
	if k > len(buf) {
		return make([]uint64, k)
	}
	clear(buf[:k])
	return buf[:k]
}

// Add sets z = x + y and returns the carry out of the top limb. z may
// alias x or y.
func Add(z, x, y []uint64) (carry uint64) {
	if len(z) == 1 {
		z[0], carry = bits.Add64(x[0], y[0], 0)
		return carry
	}
	for i := range z {
		z[i], carry = bits.Add64(x[i], y[i], carry)
	}
	return carry
}

// AddAt sets entry i of row to entry i−1 of row plus entry j of y (k-limb
// entries) and returns the carry out of the top limb: one step of
// building a prefix-sum row from its successors' counts.
func AddAt(k int, row []uint64, i int, y []uint64, j int) (carry uint64) {
	if k == 1 {
		row[i], carry = bits.Add64(row[i-1], y[j], 0)
		return carry
	}
	for l := 0; l < k; l++ {
		row[i*k+l], carry = bits.Add64(row[(i-1)*k+l], y[j*k+l], carry)
	}
	return carry
}

// Set copies x into z.
func Set(z, x []uint64) {
	if len(z) == 1 {
		z[0] = x[0]
		return
	}
	copy(z, x)
}

// Sub sets z = x − y for x ≥ y. z may alias x or y.
func Sub(z, x, y []uint64) {
	if len(z) == 1 {
		z[0] = x[0] - y[0]
		return
	}
	var borrow uint64
	for i := range z {
		z[i], borrow = bits.Sub64(x[i], y[i], borrow)
	}
}

// Cmp compares x and y and returns -1, 0 or +1.
func Cmp(x, y []uint64) int {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != y[i] {
			if x[i] < y[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// IsZero reports whether x is zero.
func IsZero(x []uint64) bool {
	if len(x) == 1 {
		return x[0] == 0
	}
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}

// BitLen returns the length of x in bits (0 for zero).
func BitLen(x []uint64) int {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != 0 {
			return i*64 + bits.Len64(x[i])
		}
	}
	return 0
}

// Float returns x·2^−shift rounded to a float64 (+Inf past its range):
// how a sweep that carried bounds the counts it could not store.
func Float(x []uint64, shift int) float64 {
	f := 0.0
	for i := len(x) - 1; i >= 0; i-- {
		f += math.Ldexp(float64(x[i]), 64*i-shift)
	}
	return f
}

// ToBig returns x as a new *big.Int.
func ToBig(x []uint64) *big.Int {
	words := make([]big.Word, len(x)*64/bits.UintSize)
	for i, v := range x {
		for j := 0; j < 64/bits.UintSize; j++ {
			words[i*64/bits.UintSize+j] = big.Word(v >> (j * bits.UintSize))
		}
	}
	return new(big.Int).SetBits(words)
}

// FromBig sets z to x and reports whether it fits: x ≥ 0 and below
// 2^(64·len(z)).
func FromBig(z []uint64, x *big.Int) bool {
	clear(z)
	if x.Sign() < 0 || x.BitLen() > 64*len(z) {
		return false
	}
	for i, w := range x.Bits() {
		z[i*bits.UintSize/64] |= uint64(w) << (i * bits.UintSize % 64)
	}
	return true
}

// Descend is one step of an unrank descent. row holds the deg+1 k-limb
// prefix sums of one vertex (entry 0 is zero) and k = len(x); the
// subtree of edge i owns the ranks [row[i], row[i+1]). Descend returns
// the edge whose subtree holds rank x and rewrites x as the rank within
// that subtree, or returns deg and leaves x alone when no subtree holds
// it. Short rows (deg ≤ 8, the fan-out real automata have) are scanned;
// wide ones are binary searched.
func Descend(row, x []uint64) int {
	if i, ok := Pick(row, x); ok {
		return i
	}
	k := len(x)
	i := search(row, x)
	if (i+1)*k < len(row) {
		Sub(x, x, row[i*k:(i+1)*k])
	}
	return i
}

// Pick is Descend for one-limb counts and short rows, the shape of nearly
// every vertex, and small enough for the compiler to inline into a
// descent loop; ok=false (x untouched) leaves every other case to
// Descend.
func Pick(row, x []uint64) (i int, ok bool) {
	if len(x) != 1 || len(row) > 9 {
		return 0, false
	}
	v := x[0]
	for i+1 < len(row) && row[i+1] <= v {
		i++
	}
	if i+1 < len(row) {
		x[0] = v - row[i]
	}
	return i, true
}

// search returns the smallest i in [0, deg) with row entry i+1 > x, or
// deg when there is none.
func search(row, x []uint64) int {
	k := len(x)
	deg := len(row)/k - 1
	i := 0
	if deg <= 8 {
		for i < deg && Cmp(row[(i+1)*k:(i+2)*k], x) <= 0 {
			i++
		}
		return i
	}
	if k == 1 {
		v := x[0]
		for hi := deg; i < hi; {
			mid := int(uint(i+hi) >> 1)
			if row[mid+1] > v {
				hi = mid
			} else {
				i = mid + 1
			}
		}
		return i
	}
	for hi := deg; i < hi; {
		mid := int(uint(i+hi) >> 1)
		if Cmp(row[(mid+1)*k:(mid+2)*k], x) > 0 {
			hi = mid
		} else {
			i = mid + 1
		}
	}
	return i
}

// Draw sets z to a uniformly random value below bound (both k limbs,
// bound > 0). It consumes rng exactly as sample.RandBigInto does for the
// same bound: ⌈bitlen/8⌉ bytes from rng.Intn(256), most significant
// first, the leading byte shifted right by the excess bits, the whole
// draw repeated while z ≥ bound. (rng.Intn(256) is bits 32–39 of
// rng.Int63(), which is how byteOf reads it without the two call layers
// in between.)
func Draw(rng *rand.Rand, bound, z []uint64) {
	nbits := BitLen(bound)
	if nbits == 0 {
		panic("limb: Draw needs a positive bound")
	}
	nbytes := (nbits + 7) / 8
	excess := uint(nbytes*8 - nbits)
	if len(z) == 1 {
		for {
			v := byteOf(rng) >> excess
			for i := 1; i < nbytes; i++ {
				v = v<<8 | byteOf(rng)
			}
			if v < bound[0] {
				z[0] = v
				return
			}
		}
	}
	for {
		clear(z)
		// Byte j counts from the least significant end.
		for j := nbytes - 1; j >= 0; j-- {
			b := byteOf(rng)
			if j == nbytes-1 {
				b >>= excess
			}
			z[j/8] |= b << (8 * (j % 8))
		}
		if Cmp(z, bound) < 0 {
			return
		}
	}
}

// byteOf returns rng.Intn(256), consuming the same source value.
func byteOf(rng *rand.Rand) uint64 { return uint64(rng.Int63()>>32) & 0xff }
