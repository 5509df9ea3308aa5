package rng

import (
	"math"
	"testing"
)

// geometricRef is the definition Geometric must reproduce: the index of the
// first success in a run of Bool(1/m) trials, capped at 1<<20.
func geometricRef(r *Rand, m float64) int {
	if m <= 1 {
		return 1
	}
	p := 1.0 / m
	n := 1
	for !r.Bool(p) {
		n++
		if n >= 1<<20 {
			break
		}
	}
	return n
}

// Geometric must return the reference's value and leave the generator in
// the reference's state, draw for draw.
func TestGeometricMatchesBernoulliLoop(t *testing.T) {
	means := []float64{
		math.Inf(-1), -3, 0, 0.5, 1, math.Nextafter(1, 2), 1.0001, 1.4, 2, 2.5, 3,
		4.5, 7.5, 10.02, 11.25, 12, 63, 1.0 / 0.45, 1000,
		// Means near and past the 1<<20 cap, sampled sparingly.
		3 << 10, 1 << 19, 1 << 21,
	}
	for seed := uint64(0); seed < 40; seed++ {
		fast, ref := New(seed), New(seed)
		for _, m := range means {
			draws := 200
			if m > 1000 {
				draws = 2
			}
			for k := 0; k < draws; k++ {
				got, want := fast.Geometric(m), geometricRef(ref, m)
				if got != want {
					t.Fatalf("seed %d, mean %v, draw %d: Geometric = %d, reference %d", seed, m, k, got, want)
				}
				if fast.State() != ref.State() {
					t.Fatalf("seed %d, mean %v, draw %d: generator state diverged", seed, m, k)
				}
			}
		}
	}
}

// The success test x>>11 < ceil(p*2^53) is exact at the boundary: a draw
// whose top 53 bits equal the threshold fails, one below it succeeds, just
// as Float64() < p decides.
func TestGeometricThresholdBoundary(t *testing.T) {
	for _, m := range []float64{1.4, 3, 7.5, 11.25, 1.0 / 0.45} {
		p := 1.0 / m
		thr := uint64(math.Ceil(p * (1 << 53)))
		for _, top := range []uint64{thr - 1, thr} {
			f := float64(top) / (1 << 53)
			if (f < p) != (top < thr) {
				t.Fatalf("mean %v: top bits %d: Float64 test %v, integer test %v", m, top, f < p, top < thr)
			}
		}
	}
}

func TestDeterministicAndStateRoundTrip(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal seeds diverged")
		}
	}
	st := a.State()
	want := a.Uint64()
	var c Rand
	c.SetState(st)
	if got := c.Uint64(); got != want {
		t.Fatalf("restored state yields %x, want %x", got, want)
	}
	if New(0).State() == ([4]uint64{}) {
		t.Fatal("seed 0 produced the all-zero fixed point")
	}
}

func TestRangesAndPick(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v", v)
		}
		if v := r.Pick([]float64{0, 1, 0, 2}); v != 1 && v != 3 {
			t.Fatalf("Pick chose zero-weight index %d", v)
		}
	}
	if r.Bool(0) || !r.Bool(1) {
		t.Fatal("Bool(0)/Bool(1) not degenerate")
	}
}

func BenchmarkGeometric(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Geometric(7.5)
	}
}
