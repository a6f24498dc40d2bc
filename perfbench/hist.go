package main

import (
	"math"
	"math/bits"
)

// histSubBits sets the histogram's resolution: every power-of-two range of
// values is split into 2^histSubBits equal buckets, so a bucket is at most
// 1/32 of its value wide.
const histSubBits = 5

const (
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) * histSub
)

// hist is a fixed-memory log-linear histogram of non-negative int64 samples
// (nanoseconds here). It never allocates after construction, so recording
// a million latencies does not grow the heap the benchmark is measuring.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

// histIndex maps v ≥ 0 to its bucket. Values below histSub have a bucket
// each; above, the top histSubBits+1 significant bits select the bucket.
func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	shift := exp - histSubBits
	return (shift+1)*histSub + int(uint64(v)>>shift) - histSub
}

// histBounds returns the half-open range [lo, lo+width) of bucket i.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	shift := i/histSub - 1
	m := i%histSub + histSub
	return float64(uint64(m) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(v int64) { h.addN(v, 1) }

// addN records n samples of value v.
func (h *hist) addN(v int64, n uint64) {
	h.counts[histIndex(v)] += n
	h.n += n
}

// quantile estimates the q-quantile as the ⌈q·n⌉-th smallest sample,
// interpolated linearly by rank inside its bucket. The estimate lies in the
// same bucket as the exact order statistic.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	if target > h.n {
		target = h.n
	}
	var before uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if before+c >= target {
			lo, width := histBounds(i)
			return lo + width*(float64(target-before)-0.5)/float64(c)
		}
		before += c
	}
	return 0 // unreachable: target ≤ n
}

// passQuantiles collects quantiles of one histogram per pass; a run
// reports their medians over passes, so a slow spell during one pass moves
// the result by at most one sample.
type passQuantiles struct{ p50, p90, p99 []float64 }

// take records h's quantiles (ns) and empties h for the next pass.
func (q *passQuantiles) take(h *hist) {
	q.p50 = append(q.p50, h.quantile(0.50))
	q.p90 = append(q.p90, h.quantile(0.90))
	q.p99 = append(q.p99, h.quantile(0.99))
	*h = hist{}
}

// put stores the medians in microseconds: p50 and p90 as the metrics
// <prefix>_p50_us and <prefix>_p90_us, p99 as information only.
func (q *passQuantiles) put(res *result, prefix string) {
	res.metrics[prefix+"_p50_us"] = median(q.p50) / 1e3
	res.metrics[prefix+"_p90_us"] = median(q.p90) / 1e3
	res.info = append(res.info, metricValue{prefix + "_p99_us", "us", median(q.p99) / 1e3})
}
