package main

import (
	"math"
	"math/rand"
	"testing"
)

// TestHistQuantileWithinBucket: a histogram quantile lies within one
// bucket width (1/128 of the value) of the exact nearest-rank quantile.
func TestHistQuantileWithinBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := new(hist)
	xs := make([]int64, 20000)
	for i := range xs {
		xs[i] = int64(math.Exp(rng.Float64() * 16)) // 1 ns .. ~9 ms
		h.add(xs[i])
	}
	sorted := sortedCopy(xs)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		want := float64(quantile(sorted, q))
		got := h.quantile(q)
		if math.Abs(got-want) > math.Max(1, want/histSub) {
			t.Errorf("q%v: histogram %v, exact %v", q, got, want)
		}
	}
}

// TestHistIndexBounds: every value falls inside the bounds of its bucket.
func TestHistIndexBounds(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 123456, 1 << 35} {
		lo, width := histBounds(histIndex(v))
		if float64(v) < lo || float64(v) >= lo+width {
			t.Errorf("%d: bucket [%v, %v)", v, lo, lo+width)
		}
	}
}
