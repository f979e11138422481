package serve

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// mineNames generates n station names whose FNV-32a hash lands on the
// given shard (of shards) — the deterministic way to build a skewed
// station distribution.
func mineNames(prefix string, n, shards, want int) []string {
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		h := fnv.New32a()
		h.Write([]byte(name))
		if int(h.Sum32())%shards == want {
			out = append(out, name)
		}
	}
	return out
}

// stationRecord collects one station's verdicts. Appended only by the
// owning shard goroutine; read after Close (the goroutine join publishes
// the slices).
type stationRecord struct {
	indices []int
	epochs  []int
}

// TestMultiProducerStress is the scaling-program invariant test: ≥8
// producers over a skewed station distribution (half the stations mined
// onto shard 0), concurrent hot reloads and a staged canary, small queues
// to force ErrBacklog — asserting zero dropped verdicts, contiguous
// per-station indices, monotone per-station epochs, and a rejection
// count that matches what producers observed. Run under -race in CI.
func TestMultiProducerStress(t *testing.T) {
	const (
		shards    = 4
		producers = 8
		perProd   = 2 // stations per producer
	)
	points := 300
	if testing.Short() {
		points = 120
	}
	s := newTestService(t, Config{
		Shards:     shards,
		QueueDepth: 64,
		Mitigate:   true,
		Rollout:    testRollout(),
	})

	// Half the stations land on shard 0 (hot), the rest on shard 1, so
	// two shards stay idle and park, ready to take split wave chunks.
	hot := mineNames("hot", producers*perProd/2, shards, 0)
	cold := mineNames("cold", producers*perProd/2, shards, 1)
	names := append(append([]string{}, hot...), cold...)

	recs := make(map[string]*stationRecord, len(names))
	handles := make(map[string]*Station, len(names))
	replies := make(map[string]func(Verdict), len(names))
	for _, name := range names {
		rec := &stationRecord{}
		recs[name] = rec
		h, err := s.Station(name)
		if err != nil {
			t.Fatal(err)
		}
		handles[name] = h
		replies[name] = func(v Verdict) {
			rec.indices = append(rec.indices, v.Index)
			rec.epochs = append(rec.epochs, v.Epoch)
		}
	}

	// Concurrent control plane: hot reloads plus one canary staging.
	stopCtl := make(chan struct{})
	var ctl sync.WaitGroup
	ctl.Add(1)
	go func() {
		defer ctl.Done()
		w := s.Weights()
		staged := false
		for i := 0; ; i++ {
			select {
			case <-stopCtl:
				return
			default:
			}
			for j := range w {
				w[j] *= 1 + 1e-9
			}
			if _, err := s.ReloadWeights(w, 0); err != nil {
				t.Errorf("reload: %v", err)
				return
			}
			if !staged && i == 3 {
				if _, err := s.StageWeights(w, 0); err != nil {
					t.Errorf("stage: %v", err)
					return
				}
				staged = true
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var rejected atomic.Uint64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			mine := names[p*perProd : (p+1)*perProd]
			feed := testSeries(points, uint64(100+p))
			for _, name := range mine {
				h := handles[name]
				reply := replies[name]
				if p%2 == 0 {
					// Single-submit path with retry-on-backlog.
					for _, v := range feed {
						for {
							err := h.Submit(v, reply)
							if err == nil {
								break
							}
							if err != ErrBacklog {
								t.Errorf("submit: %v", err)
								return
							}
							rejected.Add(1)
							runtime.Gosched()
						}
					}
					continue
				}
				// Batched path: partial acceptance resubmits the tail.
				for off := 0; off < len(feed); {
					hi := off + 8
					if hi > len(feed) {
						hi = len(feed)
					}
					chunk := feed[off:hi]
					for len(chunk) > 0 {
						n, err := h.SubmitN(chunk, reply)
						chunk = chunk[n:]
						if err == nil {
							continue
						}
						if err != ErrBacklog {
							t.Errorf("submitN: %v", err)
							return
						}
						rejected.Add(1)
						runtime.Gosched()
					}
					off = hi
				}
			}
		}(p)
	}
	wg.Wait()
	close(stopCtl)
	ctl.Wait()
	s.Close() // drains every accepted observation; idempotent with Cleanup

	total := uint64(producers * perProd * points)
	st := s.Stats()
	if st.Points != total {
		t.Fatalf("delivered %d verdicts, accepted %d: dropped %d", st.Points, total, total-st.Points)
	}
	if st.Rejected != rejected.Load() {
		t.Fatalf("Stats.Rejected = %d, producers observed %d", st.Rejected, rejected.Load())
	}
	for name, rec := range recs {
		if len(rec.indices) != points {
			t.Fatalf("station %s: %d verdicts, want %d", name, len(rec.indices), points)
		}
		for i, idx := range rec.indices {
			if idx != i {
				t.Fatalf("station %s: verdict %d has index %d (not contiguous)", name, i, idx)
			}
		}
		for i := 1; i < len(rec.epochs); i++ {
			if rec.epochs[i] < rec.epochs[i-1] {
				t.Fatalf("station %s: epoch regressed %d → %d at point %d",
					name, rec.epochs[i-1], rec.epochs[i], i)
			}
		}
	}
	if st.Epoch < 2 {
		t.Fatalf("final epoch %d: reloads did not land during the stress", st.Epoch)
	}
}

// TestHandleSubmitZeroAlloc guards the steady-state handle submit path:
// after warmup, neither Submit nor a 1-point SubmitN may allocate.
func TestHandleSubmitZeroAlloc(t *testing.T) {
	s := newTestService(t, Config{Shards: 1})
	h, err := s.Station("z-alloc")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan Verdict, 1)
	reply := func(v Verdict) { ch <- v }
	feed := testSeries(64, 7)
	for _, v := range feed { // warm up ring + scratch growth
		if err := h.Submit(v, reply); err != nil {
			t.Fatal(err)
		}
		<-ch
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		if err := h.Submit(feed[i%len(feed)], reply); err != nil {
			t.Fatal(err)
		}
		<-ch
		i++
	}); allocs != 0 {
		t.Fatalf("handle Submit allocates %.1f times per call, want 0", allocs)
	}
	one := make([]float64, 1)
	if allocs := testing.AllocsPerRun(200, func() {
		one[0] = feed[i%len(feed)]
		if _, err := h.SubmitN(one, reply); err != nil {
			t.Fatal(err)
		}
		<-ch
		i++
	}); allocs != 0 {
		t.Fatalf("handle SubmitN allocates %.1f times per call, want 0", allocs)
	}
}

// TestStationHandleSurvivesEviction: a cached handle re-resolves after
// idle eviction instead of feeding a dead station forever.
func TestStationHandleSurvivesEviction(t *testing.T) {
	s := newTestService(t, Config{Shards: 1, IdleTTL: 5 * time.Millisecond})
	h, err := s.Station("z-evict")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan Verdict, 1)
	reply := func(v Verdict) { ch <- v }
	if err := h.Submit(1.0, reply); err != nil {
		t.Fatal(err)
	}
	if v := <-ch; v.Index != 0 {
		t.Fatalf("first index %d, want 0", v.Index)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Evicted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("station never evicted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := h.Submit(2.0, reply); err != nil {
		t.Fatalf("submit after eviction: %v", err)
	}
	if v := <-ch; v.Index != 0 {
		t.Fatalf("post-eviction index %d, want 0 (fresh station)", v.Index)
	}
	if s.Stats().Stations != 1 {
		t.Fatalf("stations = %d after re-resolve, want 1", s.Stats().Stations)
	}
}

// TestWaveSplitParity: a 2-shard service whose stations all hash onto
// shard 0 splits that shard's waves over its parked sibling, and must
// reach bit-identical verdicts to a 1-shard service, which never splits.
func TestWaveSplitParity(t *testing.T) {
	const nStations = 24 // 3×minChunk windows per round: waves split
	rounds := 100
	if testing.Short() {
		rounds = 50
	}
	names := mineNames("split", nStations, 2, 0) // all on shard 0: maximally hot
	feeds := make([][]float64, nStations)
	for i := range feeds {
		feeds[i] = attackSeries(rounds, uint64(40+i), 23)
	}
	run := func(shards int) (map[string][]Verdict, Stats) {
		s := newTestService(t, Config{Shards: shards, Mitigate: true})
		got := make(map[string][]Verdict, nStations)
		replies := make([]func(Verdict), nStations)
		handles := make([]*Station, nStations)
		var pending sync.WaitGroup
		for i, name := range names {
			h, err := s.Station(name)
			if err != nil {
				t.Fatal(err)
			}
			handles[i] = h
			replies[i] = func(v Verdict) {
				got[name] = append(got[name], v)
				pending.Done()
			}
		}
		// Hold shard 0 on a gate verdict while each round is queued, so
		// the round lands in one drain whatever the core count.
		gateName := mineNames("gate", 1, shards, 0)[0]
		for r := 0; r < rounds; r++ {
			gate := make(chan struct{})
			pending.Add(1 + nStations)
			if err := s.Submit(gateName, 0.5, func(Verdict) { <-gate; pending.Done() }); err != nil {
				t.Fatal(err)
			}
			for i, h := range handles {
				if err := h.Submit(feeds[i][r], replies[i]); err != nil {
					t.Fatal(err)
				}
			}
			close(gate)
			pending.Wait()
		}
		st := s.Stats()
		s.Close()
		return got, st
	}

	split, stSplit := run(2)
	ref, stRef := run(1)
	if stRef.StealOffered != 0 {
		t.Fatalf("1-shard service split off %d chunks", stRef.StealOffered)
	}
	if stSplit.StealOffered == 0 {
		t.Fatal("hot shard never split a wave onto its parked sibling")
	}
	if stSplit.StealStolen != stSplit.StealOffered {
		t.Fatalf("StealStolen %d != StealOffered %d", stSplit.StealStolen, stSplit.StealOffered)
	}
	for _, name := range names {
		a, b := split[name], ref[name]
		if len(a) != rounds || len(b) != rounds {
			t.Fatalf("station %s: %d and %d verdicts, want %d", name, len(a), len(b), rounds)
		}
		for i := range a {
			// Chunked scoring is row-invariant, so the streams are
			// bit-identical, not merely close.
			if a[i] != b[i] {
				t.Fatalf("station %s point %d: split %+v vs 1-shard %+v", name, i, a[i], b[i])
			}
		}
	}
}
