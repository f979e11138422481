package serve

import (
	"testing"

	"github.com/evfed/evfed/internal/rng"
)

// TestHistIdxMonotone: the bucket index is a monotone, in-bounds map of
// durations across every octave boundary.
func TestHistIdxMonotone(t *testing.T) {
	prev := -1
	for ns := int64(0); ns < 1<<20; ns++ {
		idx := histIdx(ns)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("histIdx(%d) = %d out of range", ns, idx)
		}
		if idx < prev {
			t.Fatalf("histIdx(%d) = %d < histIdx(%d) = %d", ns, idx, ns-1, prev)
		}
		prev = idx
	}
	// Sparse sweep over the upper octaves.
	prev = -1
	for ns := int64(1 << 20); ns > 0 && ns < int64(1)<<62; ns += ns / 3 {
		idx := histIdx(ns)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("histIdx(%d) = %d out of range", ns, idx)
		}
		if idx < prev {
			t.Fatalf("histIdx(%d) = %d below previous %d", ns, idx, prev)
		}
		prev = idx
	}
	if histIdx(-5) != 0 {
		t.Fatalf("negative duration must clamp to bucket 0")
	}
}

// TestHistMidError: reading a duration back through its bucket midpoint
// carries at most 6.25% relative error (half a sub-bucket width).
func TestHistMidError(t *testing.T) {
	r := rng.New(11)
	for i := 0; i < 200000; i++ {
		// Log-uniform over [8ns, ~4.6s].
		e := 3 + r.Intn(29)
		ns := int64(1)<<uint(e) + int64(r.Intn(1<<uint(e)))
		mid := histMid(histIdx(ns))
		rel := (mid - float64(ns)) / float64(ns)
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.0625 {
			t.Fatalf("histMid(histIdx(%d)) = %v: relative error %.4f > 6.25%%", ns, mid, rel)
		}
	}
	for ns := int64(0); ns < 8; ns++ {
		if histMid(histIdx(ns)) != float64(ns) {
			t.Fatalf("small-value bucket %d not exact", ns)
		}
	}
}

// TestHistQuantile: quantiles of a known bimodal distribution read back
// within the bin-error bound, in microseconds.
func TestHistQuantile(t *testing.T) {
	var h latHist
	for i := 0; i < 990; i++ {
		h.observe(1000) // 1µs
	}
	for i := 0; i < 10; i++ {
		h.observe(100000) // 100µs
	}
	var m [histBuckets]uint64
	h.mergeInto(&m)
	var total uint64
	for _, c := range m {
		total += c
	}
	if total != 1000 {
		t.Fatalf("merged %d observations, want 1000", total)
	}
	within := func(got, want, tol float64) bool {
		d := got - want
		if d < 0 {
			d = -d
		}
		return d <= tol*want
	}
	if p50 := histQuantile(&m, total, 0.50); !within(p50, 1.0, 0.0625) {
		t.Fatalf("p50 = %v µs, want ≈1", p50)
	}
	if p99 := histQuantile(&m, total, 0.99); !within(p99, 1.0, 0.0625) {
		t.Fatalf("p99 = %v µs, want ≈1", p99)
	}
	if p999 := histQuantile(&m, total, 0.999); !within(p999, 100.0, 0.0625) {
		t.Fatalf("p999 = %v µs, want ≈100", p999)
	}
	var empty [histBuckets]uint64
	if q := histQuantile(&empty, 0, 0.99); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
}

// TestHistStatsExposure: the service folds shard histograms into the
// Stats percentiles (and keeps p999 ≥ p50).
func TestHistStatsExposure(t *testing.T) {
	s := newTestService(t, Config{Shards: 2})
	collect(t, s, "z1", testSeries(64, 3))
	st := s.Stats()
	if st.LatencyP50Micros <= 0 {
		t.Fatalf("LatencyP50Micros = %v, want > 0", st.LatencyP50Micros)
	}
	if st.LatencyP90Micros < st.LatencyP50Micros ||
		st.LatencyP99Micros < st.LatencyP90Micros ||
		st.LatencyP999Micros < st.LatencyP99Micros {
		t.Fatalf("percentiles not monotone: %+v", st)
	}
}
