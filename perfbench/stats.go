package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p95 over 40 samples would rest on the top two, which is noise.
const minBeyond = 10

// quantile is one percentile computed by nearest rank over raw samples.
type quantile struct {
	P     float64 // percentile, 0 < P <= 100
	Value float64 // the sample at the nearest rank; 0 when !OK
	N     int     // sample count
	OK    bool    // at least minBeyond samples lie beyond the rank
}

// nearestRank returns the p-th percentile of samples by the nearest-rank
// definition: the smallest sample such that at least p% of all samples are
// at or below it. No interpolation and no bucketing, so the value is always
// one of the measured samples. samples is not modified.
func nearestRank(samples []float64, p float64) quantile {
	q := quantile{P: p, N: len(samples)}
	if q.N == 0 || p <= 0 || p > 100 {
		return q
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(q.N)))
	if rank < 1 {
		rank = 1
	}
	q.Value = sorted[rank-1]
	q.OK = q.N-rank >= minBeyond
	return q
}

// median is the middle sample (mean of the middle two for even counts); it
// summarizes repeated runs, not latency distributions.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
