package fed

import (
	"errors"
	"math"
	"testing"

	"github.com/evfed/evfed/internal/mat"
	"github.com/evfed/evfed/internal/rng"
)

func randomUpdates(t *testing.T, seed uint64, clients, dim int) []Update {
	t.Helper()
	r := rng.New(seed)
	ups := make([]Update, clients)
	for c := range ups {
		w := make([]float64, dim)
		for i := range w {
			w[i] = r.Normal(0, 1)
		}
		ups[c] = Update{ClientID: string(rune('a' + c)), Weights: w, NumSamples: 1 + r.Intn(50)}
	}
	return ups
}

func streamRound(t *testing.T, st StreamAggregator, ups []Update, dim int) []float64 {
	t.Helper()
	st.Begin(dim, len(ups))
	for i := range ups {
		if err := st.Add(&ups[i]); err != nil {
			t.Fatal(err)
		}
	}
	out, err := st.Finish(make([]float64, dim))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The streaming implementations must agree with the one-shot Aggregate
// path: exactly for the order-statistic rules, and to accumulation-order
// rounding for the mean family.
func TestStreamAggregatorsMatchBatch(t *testing.T) {
	const dim = 777 // exercises a partial column block
	for _, tc := range []struct {
		agg   Aggregator
		exact bool
	}{
		{MeanAggregator{}, false},
		{UniformAggregator{}, false},
		{MedianAggregator{}, true},
		{TrimmedMeanAggregator{TrimPerSide: 1}, true},
	} {
		for _, clients := range []int{1, 2, 4, 9} {
			if _, ok := tc.agg.(TrimmedMeanAggregator); ok && clients < 3 {
				continue
			}
			ups := randomUpdates(t, uint64(clients)*13, clients, dim)
			batch, err := tc.agg.Aggregate(ups)
			if err != nil {
				t.Fatal(err)
			}
			stream := streamRound(t, NewStream(tc.agg), ups, dim)
			for i := range batch {
				if tc.exact {
					if stream[i] != batch[i] {
						t.Fatalf("%s clients=%d: stream[%d]=%v batch=%v",
							tc.agg.Name(), clients, i, stream[i], batch[i])
					}
				} else if math.Abs(stream[i]-batch[i]) > 1e-12*(1+math.Abs(batch[i])) {
					t.Fatalf("%s clients=%d: stream[%d]=%v batch=%v",
						tc.agg.Name(), clients, i, stream[i], batch[i])
				}
			}
		}
	}
}

// Quickselect-based order statistics must agree with a reference sort.
func TestRankAggregateMatchesSortReference(t *testing.T) {
	const dim = 300
	for _, clients := range []int{1, 2, 3, 5, 8, 11} {
		ups := randomUpdates(t, uint64(clients)*31, clients, dim)
		med, err := (MedianAggregator{}).Aggregate(ups)
		if err != nil {
			t.Fatal(err)
		}
		col := make([]float64, clients)
		for i := 0; i < dim; i++ {
			for c := range ups {
				col[c] = ups[c].Weights[i]
			}
			// Reference: insertion sort of the column.
			for a := 1; a < clients; a++ {
				for b := a; b > 0 && col[b] < col[b-1]; b-- {
					col[b], col[b-1] = col[b-1], col[b]
				}
			}
			var want float64
			if clients%2 == 1 {
				want = col[clients/2]
			} else {
				want = (col[clients/2-1] + col[clients/2]) / 2
			}
			if med[i] != want {
				t.Fatalf("clients=%d coord %d: median %v want %v", clients, i, med[i], want)
			}
		}
		if clients >= 3 {
			trm, err := (TrimmedMeanAggregator{TrimPerSide: 1}).Aggregate(ups)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < dim; i++ {
				for c := range ups {
					col[c] = ups[c].Weights[i]
				}
				for a := 1; a < clients; a++ {
					for b := a; b > 0 && col[b] < col[b-1]; b-- {
						col[b], col[b-1] = col[b-1], col[b]
					}
				}
				var sum float64
				for _, v := range col[1 : clients-1] {
					sum += v
				}
				want := sum / float64(clients-2)
				if math.Abs(trm[i]-want) > 1e-12*(1+math.Abs(want)) {
					t.Fatalf("clients=%d coord %d: trimmed %v want %v", clients, i, trm[i], want)
				}
			}
		}
	}
}

// Acceptance gate: the coordinator's aggregation step — Begin, one Add
// per client, Finish into a retained destination — allocates nothing in
// TestMeanStreamBatchingMatchesSingleFolds holds the four-at-a-time fold
// to one mat.AxpyComp per update, bit for bit: 1…9 updates, with a
// downstream partial merged and the fold exported mid-stream at every
// position, for both mean rules. Exported partials and the finished mean
// must equal the reference fold's state at the same point.
func TestMeanStreamBatchingMatchesSingleFolds(t *testing.T) {
	const dim = 37 // a tail after the eight- and four-lane passes
	bitsEqual := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	r := rng.New(71)
	hi, lo := make([]float64, dim), make([]float64, dim)
	for i := range hi {
		hi[i], lo[i] = r.Normal(0, 100), r.Normal(0, 1e-14)
	}
	for _, weighted := range []bool{true, false} {
		agg := Aggregator(MeanAggregator{})
		kind := PartialWeighted
		if !weighted {
			agg, kind = UniformAggregator{}, PartialUniform
		}
		st := NewStream(agg).(*meanStream)
		for n := 1; n <= 9; n++ {
			ups := randomUpdates(t, uint64(100+n), n, dim)
			for mergeAt := 0; mergeAt <= n; mergeAt++ {
				for exportAt := 0; exportAt <= n; exportAt++ {
					acc, comp := make([]float64, dim), make([]float64, dim)
					total := 0.0
					st.Begin(dim, n)
					var exported Partial
					for i := 0; i <= n; i++ {
						if i == mergeAt {
							p := Partial{NodeID: "e", Kind: kind, Dim: dim, WeightTotal: 7, Count: 2, AccHi: hi, AccLo: lo}
							if err := st.AddPartial(&p); err != nil {
								t.Fatal(err)
							}
							mat.AxpyComp(1, acc, comp, hi)
							mat.AddVec(comp, lo)
							total += 7
						}
						if i == exportAt {
							err := st.ExportPartial(&exported)
							switch {
							case total == 0:
								if !errors.Is(err, ErrNoClients) {
									t.Fatalf("export of an empty fold: %v, want ErrNoClients", err)
								}
							case err != nil:
								t.Fatal(err)
							case !bitsEqual(exported.AccHi, acc) || !bitsEqual(exported.AccLo, comp) || exported.WeightTotal != total:
								t.Fatalf("weighted=%v n=%d merge@%d export@%d: exported partial differs from single folds",
									weighted, n, mergeAt, exportAt)
							}
						}
						if i == n {
							break
						}
						if err := st.Add(&ups[i]); err != nil {
							t.Fatal(err)
						}
						w := 1.0
						if weighted {
							w = float64(ups[i].NumSamples)
						}
						mat.AxpyComp(w, acc, comp, ups[i].Weights)
						total += w
					}
					got, err := st.Finish(make([]float64, dim))
					if err != nil {
						t.Fatal(err)
					}
					for i := range got {
						if want := (acc[i] + comp[i]) * (1 / total); math.Float64bits(got[i]) != math.Float64bits(want) {
							t.Fatalf("weighted=%v n=%d merge@%d export@%d coordinate %d: %v, single folds %v",
								weighted, n, mergeAt, exportAt, i, got[i], want)
						}
					}
				}
			}
		}
	}
}

// steady state, for every built-in aggregator.
func TestStreamAggregatorsSteadyStateAllocFree(t *testing.T) {
	const dim, clients = 2048, 8
	ups := randomUpdates(t, 99, clients, dim)
	for _, agg := range []Aggregator{
		MeanAggregator{},
		UniformAggregator{},
		MedianAggregator{},
		TrimmedMeanAggregator{TrimPerSide: 2},
	} {
		st := NewStream(agg)
		dst := make([]float64, dim)
		round := func() {
			st.Begin(dim, clients)
			for i := range ups {
				if err := st.Add(&ups[i]); err != nil {
					t.Fatal(err)
				}
			}
			out, err := st.Finish(dst)
			if err != nil {
				t.Fatal(err)
			}
			dst = out
		}
		round() // warm the scratch
		if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
			t.Fatalf("%s: aggregation round allocates (%v allocs/op)", agg.Name(), allocs)
		}
	}
}

func TestStreamAggregatorErrors(t *testing.T) {
	st := NewStream(MeanAggregator{})
	st.Begin(3, 2)
	bad := Update{ClientID: "x", Weights: []float64{1, 2}, NumSamples: 1}
	if err := st.Add(&bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("dim mismatch: %v", err)
	}
	st.Begin(3, 2)
	zero := Update{ClientID: "z", Weights: []float64{1, 2, 3}, NumSamples: 0}
	if err := st.Add(&zero); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero samples: %v", err)
	}
	st.Begin(3, 0)
	if _, err := st.Finish(make([]float64, 3)); !errors.Is(err, ErrNoClients) {
		t.Fatalf("empty round: %v", err)
	}
	tr := NewStream(TrimmedMeanAggregator{TrimPerSide: 1})
	tr.Begin(2, 1)
	one := Update{ClientID: "a", Weights: []float64{1, 2}, NumSamples: 1}
	if err := tr.Add(&one); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Finish(make([]float64, 2)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("over-trim: %v", err)
	}
	// A negative trim must surface as ErrBadConfig through the streaming
	// path too, not silently degrade to the median.
	neg := NewStream(TrimmedMeanAggregator{TrimPerSide: -1})
	neg.Begin(2, 1)
	if err := neg.Add(&one); err != nil {
		t.Fatal(err)
	}
	if _, err := neg.Finish(make([]float64, 2)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative trim: %v", err)
	}
}

// customAgg exercises the buffered fallback for aggregators the streaming
// layer does not specialize.
type customAgg struct{}

func (customAgg) Name() string { return "first-client" }
func (customAgg) Aggregate(updates []Update) ([]float64, error) {
	if len(updates) == 0 {
		return nil, ErrNoClients
	}
	out := append([]float64(nil), updates[0].Weights...)
	return out, nil
}

func TestStreamAggregatorBufferedFallback(t *testing.T) {
	ups := randomUpdates(t, 5, 3, 17)
	out := streamRound(t, NewStream(customAgg{}), ups, 17)
	for i := range out {
		if out[i] != ups[0].Weights[i] {
			t.Fatalf("fallback diverges at %d", i)
		}
	}
}
