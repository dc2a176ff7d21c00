package limb_test

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/limb"
	"repro/internal/sample"
)

// randLimbs returns a random k-limb value with a random bit length, so
// short values in wide widths are covered too.
func randLimbs(rng *rand.Rand, k int) []uint64 {
	z := make([]uint64, k)
	for i := range z {
		z[i] = rng.Uint64()
	}
	top := rng.Intn(64*k + 1)
	for i := range z {
		switch {
		case (i+1)*64 <= top:
		case i*64 >= top:
			z[i] = 0
		default:
			z[i] &= 1<<uint(top-i*64) - 1
		}
	}
	return z
}

// TestArithmeticMatchesBig: Add (with its carry), Sub, Cmp, IsZero,
// BitLen and the big.Int conversions agree with math/big at widths 1–4.
func TestArithmeticMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 1; k <= 4; k++ {
		mod := new(big.Int).Lsh(big.NewInt(1), uint(64*k))
		for trial := 0; trial < 500; trial++ {
			x, y := randLimbs(rng, k), randLimbs(rng, k)
			bx, by := limb.ToBig(x), limb.ToBig(y)
			z := make([]uint64, k)
			if !limb.FromBig(z, bx) || limb.Cmp(z, x) != 0 {
				t.Fatalf("k=%d: FromBig(ToBig(%v)) = %v", k, x, z)
			}
			sum := new(big.Int).Add(bx, by)
			carry := limb.Add(z, x, y)
			if want := sum.Cmp(mod) >= 0; want != (carry == 1) {
				t.Fatalf("k=%d: carry %d for %v + %v", k, carry, bx, by)
			}
			if sum.Mod(sum, mod); limb.ToBig(z).Cmp(sum) != 0 {
				t.Fatalf("k=%d: %v + %v = %v, want %v", k, bx, by, limb.ToBig(z), sum)
			}
			// AddAt is the same addition on entries 1 and 2 of tables.
			row, tab := make([]uint64, 2*k), make([]uint64, 3*k)
			limb.Set(row[:k], x)
			limb.Set(tab[2*k:], y)
			if c := limb.AddAt(k, row, 1, tab, 2); c != carry || limb.Cmp(row[k:], z) != 0 {
				t.Fatalf("k=%d: AddAt = %v carry %d, want %v carry %d", k, row[k:], c, z, carry)
			}
			if got, want := limb.Cmp(x, y), bx.Cmp(by); got != want {
				t.Fatalf("k=%d: Cmp = %d, want %d", k, got, want)
			}
			if bx.Cmp(by) < 0 {
				x, y, bx, by = y, x, by, bx
			}
			limb.Sub(z, x, y)
			if want := new(big.Int).Sub(bx, by); limb.ToBig(z).Cmp(want) != 0 {
				t.Fatalf("k=%d: %v − %v = %v, want %v", k, bx, by, limb.ToBig(z), want)
			}
			if limb.BitLen(x) != bx.BitLen() || limb.IsZero(x) != (bx.Sign() == 0) {
				t.Fatalf("k=%d: BitLen/IsZero disagree on %v", k, bx)
			}
		}
		if limb.FromBig(make([]uint64, k), mod) || limb.FromBig(make([]uint64, k), big.NewInt(-1)) {
			t.Fatalf("k=%d: FromBig accepted a value that does not fit", k)
		}
	}
}

// TestDescendFindsTheSubtree: on random non-decreasing rows (some with
// empty subtrees) of every fan-out around the scan/binary-search cutover,
// Descend returns the smallest i with row[i+1] > x and leaves x − row[i],
// or returns deg and leaves x alone.
func TestDescendFindsTheSubtree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for k := 1; k <= 3; k++ {
		for deg := 0; deg <= 20; deg++ {
			row := make([]uint64, (deg+1)*k)
			for i := 1; i <= deg; i++ {
				step := randLimbs(rng, k)
				if rng.Intn(4) == 0 {
					step = make([]uint64, k)
				}
				for j := range step {
					step[j] >>= 2 // room for twenty steps without a carry
				}
				limb.Add(row[i*k:(i+1)*k], row[(i-1)*k:i*k], step)
			}
			for trial := 0; trial < 50; trial++ {
				x := randLimbs(rng, k)
				if trial%2 == 0 && deg > 0 {
					copy(x, row[rng.Intn(deg+1)*k:])
				}
				want := 0
				for want < deg && limb.Cmp(row[(want+1)*k:(want+2)*k], x) <= 0 {
					want++
				}
				rest := append([]uint64(nil), x...)
				if want < deg {
					limb.Sub(rest, x, row[want*k:(want+1)*k])
				}
				if got := limb.Descend(row, x); got != want || limb.Cmp(x, rest) != 0 {
					t.Fatalf("k=%d deg=%d: Descend = %d leaving %v, want %d leaving %v", k, deg, got, x, want, rest)
				}
			}
		}
	}
}

// TestDrawMatchesRandBigInto: for the same seed and bound, Draw yields
// exactly the values sample.RandBigInto yields, at the natural width and
// with spare limbs — the property that keeps every sample stream
// identical at every width.
func TestDrawMatchesRandBigInto(t *testing.T) {
	bounds := []*big.Int{big.NewInt(1), big.NewInt(2), big.NewInt(255), big.NewInt(256), big.NewInt(257)}
	for _, v := range []uint64{1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		bounds = append(bounds, new(big.Int).SetUint64(v))
	}
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	bounds = append(bounds, two64, new(big.Int).Add(two64, big.NewInt(1)), new(big.Int).Lsh(two64, 64))
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20; i++ {
		bounds = append(bounds, new(big.Int).Add(limb.ToBig(randLimbs(rng, 3)), big.NewInt(1)))
	}
	for bi, bound := range bounds {
		natural := (bound.BitLen() + 63) / 64
		for _, k := range []int{natural, natural + 2} {
			kb := make([]uint64, k)
			if !limb.FromBig(kb, bound) {
				t.Fatalf("bound %v does not fit %d limbs", bound, k)
			}
			limbRng := rand.New(rand.NewSource(int64(bi)))
			bigRng := rand.New(rand.NewSource(int64(bi)))
			z := make([]uint64, k)
			out := new(big.Int)
			buf := make([]byte, (bound.BitLen()+7)/8)
			for d := 0; d < 64; d++ {
				limb.Draw(limbRng, kb, z)
				sample.RandBigInto(bigRng, bound, out, buf)
				if limb.ToBig(z).Cmp(out) != 0 {
					t.Fatalf("bound %v width %d draw %d: Draw %v, RandBigInto %v", bound, k, d, limb.ToBig(z), out)
				}
			}
		}
	}
}

func TestDrawPanicsOnZeroBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Draw below a zero bound did not panic")
		}
	}()
	limb.Draw(rand.New(rand.NewSource(1)), make([]uint64, 2), make([]uint64, 2))
}

// TestForceWidthRestores: the hook returns the previous setting so tests
// can nest force/restore, clamps to one limb, and Fit starts there and
// doubles.
func TestForceWidthRestores(t *testing.T) {
	prev := limb.ForceWidth(3)
	if limb.ForceWidth(0) != 3 {
		t.Fatal("ForceWidth did not report the forced width")
	}
	var widths []int
	err := limb.Fit(func(k int) (bool, error) {
		widths = append(widths, k)
		return k >= 4, nil
	})
	if err != nil || len(widths) != 3 || widths[0] != 1 || widths[2] != 4 {
		t.Fatalf("Fit tried widths %v (%v), want [1 2 4]", widths, err)
	}
	if limb.ForceWidth(prev) != 1 {
		t.Fatal("ForceWidth(0) did not clamp to one limb")
	}
}

// TestScratchUsesTheBuffer: Scratch hands out zeroed limbs from the
// caller's array when they fit and from the heap otherwise.
func TestScratchUsesTheBuffer(t *testing.T) {
	buf := [2]uint64{7, 7}
	if z := limb.Scratch(buf[:], 2); &z[0] != &buf[0] || !limb.IsZero(z) {
		t.Fatalf("Scratch(buf, 2) = %v, not the zeroed buffer", z)
	}
	if z := limb.Scratch(buf[:], 3); len(z) != 3 || &z[0] == &buf[0] || !limb.IsZero(z) {
		t.Fatalf("Scratch(buf, 3) = %v, want three fresh zero limbs", z)
	}
}
