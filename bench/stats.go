package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
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

// percentileSorted returns the nearest-rank q-quantile (0 < q ≤ 1) of an
// ascending slice: the smallest value with at least q·n samples at or
// below it.
func percentileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tailQuantiles are the percentiles a latency report may quote, lowest
// first.
var tailQuantiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// highestSupportedQuantile returns the highest of tailQuantiles that
// still has at least ten of n samples beyond it — the deepest tail the
// sample can support. A sample too small even for the median's ten
// returns 0.5: the median is always reported.
func highestSupportedQuantile(n int) float64 {
	best := tailQuantiles[0]
	for _, q := range tailQuantiles {
		if float64(n)*(1-q) >= 10-1e-9 { // 1-q is not exact in binary
			best = q
		}
	}
	return best
}

// sliceQuantiles splits samples — ordered by the time they were due — into
// slices (at least one) equal contiguous parts and returns each part's
// q-quantile.
func sliceQuantiles(samples []float64, slices int, q float64) []float64 {
	if slices > len(samples) {
		slices = len(samples)
	}
	if slices < 1 {
		slices = 1
	}
	per := make([]float64, 0, slices)
	for s := 0; s < slices; s++ {
		lo, hi := s*len(samples)/slices, (s+1)*len(samples)/slices
		part := append([]float64(nil), samples[lo:hi]...)
		sort.Float64s(part)
		per = append(per, percentileSorted(part, q))
	}
	return per
}

// typical returns the value a run keeps coming back to: the median of the
// densest third of xs — the shortest interval that holds a third of the
// samples (the lowest such interval on a tie). 0 for an empty slice; xs is
// not modified.
//
// The benchmark's host moves a timing both ways for seconds at a time: a
// boosted clock makes a stretch a quarter faster, a stalled virtual CPU or
// a busy neighbour makes one slower by anything, and either can take up
// half of a run. A median or a fixed quantile follows whichever share of
// the run was disturbed; the undisturbed samples agree with each other
// whatever their share, and the disturbed ones scatter, so the densest
// cluster is what the program itself determines.
func typical(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := (len(s) + 2) / 3
	best := 0
	for i := 1; i+k <= len(s); i++ {
		if s[i+k-1]-s[i] < s[best+k-1]-s[best] {
			best = i
		}
	}
	return median(s[best : best+k])
}

// typicalQuantile cuts samples — ordered by the time they were due — into
// slices equal parts and returns the typical value of the parts'
// q-quantiles.
func typicalQuantile(samples []float64, slices int, q float64) float64 {
	return typical(sliceQuantiles(samples, slices, q))
}

// worseShare returns by what share of base the value next is worse: a
// positive result is a regression, in the metric's own direction.
func worseShare(base, next float64, higherIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	d := (next - base) / math.Abs(base)
	if higherIsBetter {
		return -d
	}
	return d
}
