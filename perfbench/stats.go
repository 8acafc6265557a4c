package main

import (
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a reported tail
// percentile: fewer, and one outlier decides the figure.
const tailSamples = 10

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least
// tailSamples samples beyond it, and that percentile. With too few
// samples for any such percentile it returns the maximum and ok=false.
func tail(xs []float64) (v, pct float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := sorted(xs)
	n := len(s)
	if n <= tailSamples {
		return s[n-1], 100, false
	}
	i := n - 1 - tailSamples
	return s[i], 100 * float64(i+1) / float64(n), true
}

// tailBlock is how many consecutive operations make one block of
// blockTail: the smallest count whose tail (its p90) has tailSamples
// samples beyond it.
const tailBlock = 10 * tailSamples

// blockTail splits xs, in run order, into as many consecutive blocks of
// at least tailBlock samples as it holds (one block when it holds fewer),
// takes each block's tail, and returns the median of those tails, the
// smallest block's tail percentile and the block count. A burst of
// host-side slowness lifts the tail of the blocks it falls in, not the
// median over all of them; a slower operation lifts every block. ok is
// false when even one block has too few samples for a tail.
func blockTail(xs []float64) (v, pct float64, blocks int, ok bool) {
	blocks = max(1, len(xs)/tailBlock)
	tails := make([]float64, blocks)
	pct, ok = 100, true
	for b := range blocks {
		t, p, bok := tail(xs[b*len(xs)/blocks : (b+1)*len(xs)/blocks])
		tails[b], pct, ok = t, min(pct, p), ok && bok
	}
	return median(tails), pct, blocks, ok
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts a wall duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msAll converts wall durations to float milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
