package main

import "math/bits"

// hist is a log-linear latency histogram: exact below 64 ns, then 64
// buckets per power of two, so a bucket is at most 1/64 of its values
// wide. Recording a call is an increment into a fixed array: the timed
// loop allocates nothing, and the benchmark's own heap stays the same
// size from the first second of a run to the last.
type hist struct {
	counts [histBuckets]uint32
	n      int
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// histBuckets covers latencies up to 2^36 ns, about 69 s.
	histBuckets = (36 - histSubBits + 1) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		return int(max(v, 0))
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	return min((shift+1)*histSub+int(v>>shift)-histSub, histBuckets-1)
}

// histBounds is the range [lo, lo+width) of bucket i.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	shift := i/histSub - 1
	return float64(int64(i%histSub+histSub) << shift), float64(int64(1) << shift)
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range &o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile in nanoseconds, placed
// within its bucket by its rank among the bucket's samples.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := min(max(int(q*float64(h.n)+0.5), 1), h.n)
	seen := 0
	for i, c := range &h.counts {
		if seen+int(c) >= rank {
			lo, width := histBounds(i)
			return lo + width*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += int(c)
	}
	return 0
}
