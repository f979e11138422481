package main

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/evfed/evfed/internal/serve"
)

// The load generators of the serve workloads: the closed loop's in-flight
// window and producer, the open loop's pacer, and the per-slice rate
// sampler. They know the service only through the submit function they
// are handed, so the tests drive them with fakes.

// window is a producer's bound on accepted-but-unanswered points: acquire
// blocks the producer (parked, not spinning, so the shards keep the CPUs)
// until the points fit; the reply callback releases one point at a time.
type window struct {
	limit    int64
	inflight atomic.Int64
	need     atomic.Int64
	parked   atomic.Bool
	wake     chan struct{} // one token
}

func newWindow(limit int64) *window {
	return &window{limit: limit, wake: make(chan struct{}, 1)}
}

// acquire reserves n points of the window; false means the watchdog
// expired first. Only the owning producer calls it.
func (w *window) acquire(n int64, wd *watchdog) bool {
	for {
		if w.inflight.Load()+n <= w.limit {
			w.inflight.Add(n)
			return true
		}
		w.need.Store(n)
		w.parked.Store(true)
		if w.inflight.Load()+n <= w.limit {
			w.parked.Store(false)
			continue
		}
		select {
		case <-w.wake:
			w.parked.Store(false)
		case <-wd.expired:
			w.parked.Store(false)
			return false
		}
	}
}

func (w *window) release(n int64) {
	v := w.inflight.Add(-n)
	if w.parked.Load() && v+w.need.Load() <= w.limit {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// drained waits until nothing is in flight (true) or the watchdog expires.
func (w *window) drained(wd *watchdog) bool {
	if !w.acquire(w.limit, wd) {
		return false
	}
	w.inflight.Add(-w.limit)
	return true
}

// rateSampler reads a monotone counter at a fixed cadence and keeps the
// rate of each interval (counts per second over the time that really
// passed, so a late wake-up does not distort its slice).
type rateSampler struct {
	quit  chan struct{}
	done  chan struct{}
	rates []float64
}

func startRateSampler(read func() uint64, every time.Duration) *rateSampler {
	rs := &rateSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(rs.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		last, at := read(), time.Now()
		for {
			select {
			case <-rs.quit:
				return
			case <-tick.C:
				n, now := read(), time.Now()
				rs.rates = append(rs.rates, float64(n-last)/now.Sub(at).Seconds())
				last, at = n, now
			}
		}
	}()
	return rs
}

// stop ends the sampling and returns the completed slices' rates.
func (rs *rateSampler) stop() []float64 {
	close(rs.quit)
	<-rs.done
	return rs.rates
}

// tally is one producer's count of what it offered the service. In the
// open loop accepted counts the points sent, given-up ones included.
type tally struct{ accepted, calls, rejected, gaveUp, submitNS int64 }

func (t *tally) add(o tally) {
	t.accepted += o.accepted
	t.calls += o.calls
	t.rejected += o.rejected
	t.gaveUp += o.gaveUp
	t.submitNS += o.submitNS
}

// produce is one closed-loop producer: it walks its stations, submitting
// each one's next chunk as soon as the in-flight window has room, until
// the deadline; then it waits for its window to drain. It returns early,
// leaving the window non-empty, when the watchdog expires — whatever is
// still in flight then is lost. submit is Station.SubmitN (a fake in
// tests); timed adds the clock reads behind serve.submit_ns.
func produce(set []*stationState, win *window, deadline time.Time, wd *watchdog, t *tally, timed bool,
	submit func(st *stationState, chunk []float64) (int, error)) {
	for {
		for _, st := range set {
			if !time.Now().Before(deadline) {
				win.drained(wd)
				return
			}
			if !win.acquire(chunkLen, wd) {
				return
			}
			chunk := st.nextChunk()
			for tries := 0; len(chunk) > 0; tries++ {
				var t0 time.Time
				if timed {
					t0 = time.Now()
				}
				n, err := submit(st, chunk)
				if timed {
					t.submitNS += int64(time.Since(t0))
				}
				t.calls++
				t.accepted += int64(n)
				chunk = chunk[n:]
				if err == nil {
					continue
				}
				t.rejected++
				if !errors.Is(err, serve.ErrBacklog) || tries >= submitRetries {
					// The rest of the chunk is given up: it keeps its feed
					// position but leaves the window.
					t.gaveUp += int64(len(chunk))
					win.release(int64(len(chunk)))
					break
				}
				runtime.Gosched()
			}
		}
	}
}

// pace is one open-loop producer: point i falls due i×interval
// nanoseconds after start, whatever happened to the points before it.
// pace waits for each due time (sleeping while it is far, yielding for
// the last 100 µs — a pacer that spins all the way takes a CPU from the
// shards and its own lag p99 triples), records in lag[i] how late the point went out, and calls
// send(i). A send that stalls makes the points behind it late; they are
// still sent, and still timed from when they were due. It returns the
// number of points sent — len(lag) unless the watchdog expired.
func pace(start time.Time, interval float64, lag []int64, wd *watchdog, send func(i int)) int {
	for i := range lag {
		due := time.Duration(float64(i) * interval)
		now := time.Since(start)
		for now < due {
			if due-now > 200*time.Microsecond {
				time.Sleep(due - now - 100*time.Microsecond)
			} else {
				runtime.Gosched()
			}
			now = time.Since(start)
		}
		lag[i] = int64(now - due)
		if i&0xff == 0 && wd.hasExpired() {
			return i
		}
		send(i)
	}
	return len(lag)
}

// sinceDue is how long after its due time slot's verdict arrived, in
// nanoseconds (at least 1, so that 0 can mean "no verdict yet").
func sinceDue(start time.Time, slot int, interval float64) int64 {
	d := int64(time.Since(start)) - int64(float64(slot)*interval)
	if d < 1 {
		d = 1
	}
	return d
}
