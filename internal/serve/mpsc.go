package serve

import (
	"sync/atomic"
)

// cacheLine separates producer-written and consumer-written hot fields so
// multi-producer submission does not false-share with the shard's drain
// loop (or with the neighbouring shard's allocation).
const cacheLine = 64

// mpscSlot is one cell of the ingress ring. seq is the Vyukov sequence
// number: seq == pos means the slot is free for the producer that owns
// ticket pos; seq == pos+1 means it holds that ticket's task; after the
// consumer empties it, seq jumps to pos+capacity for the next lap.
type mpscSlot struct {
	seq atomic.Uint64
	t   task
}

// mpsc is a bounded multi-producer single-consumer ring (Vyukov's bounded
// queue specialized to one consumer), replacing the per-shard Go channel
// on the submit hot path: producers contend only on one tail CAS and the
// slot they won, never on a channel lock.
//
// The consumer parks on a 1-token wake channel when the ring is empty.
// The parked flag and the slot sequence stores are all seq-cst atomics,
// so the standard Dekker argument applies: either the producer observes
// parked and sends the wake token, or the consumer's pre-park recheck
// observes the new task. Either way no task is left behind with the
// consumer asleep.
//
// Each group of fields fills exactly one cache line, so the struct is a
// whole number of lines and the allocator's size class keeps every ring
// line-aligned: the parked flag the consumer writes on each park never
// shares a line with the read-only header of the ring allocated next to
// it, and the ring's layout is the same in every run.
type mpsc struct {
	slots []mpscSlot
	mask  uint64
	_     [cacheLine - 32]byte

	tail atomic.Uint64 // producers: next ticket
	_    [cacheLine - 8]byte

	head uint64 // consumer-private: next slot to read
	_    [cacheLine - 8]byte

	parked atomic.Bool
	wake   chan struct{}
	_      [cacheLine - 16]byte
}

// newMPSC builds a ring with capacity rounded up to the next power of two
// (the Vyukov index math needs it; QueueDepth is documented accordingly).
func newMPSC(capacity int) *mpsc {
	n := 1
	for n < capacity {
		n <<= 1
	}
	q := &mpsc{slots: make([]mpscSlot, n), mask: uint64(n - 1), wake: make(chan struct{}, 1)}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q
}

// cap returns the ring capacity.
func (q *mpsc) cap() int { return len(q.slots) }

// enqueue publishes one task. It returns false when the ring is full —
// the exact QueueDepth bound, not an approximation, because fullness is
// detected from the claimed slot's sequence rather than a stale head.
func (q *mpsc) enqueue(t task) bool {
	pos := q.tail.Load()
	for {
		s := &q.slots[pos&q.mask]
		switch d := int64(s.seq.Load()) - int64(pos); {
		case d == 0:
			if q.tail.CompareAndSwap(pos, pos+1) {
				s.t = t
				s.seq.Store(pos + 1)
				return true
			}
			pos = q.tail.Load()
		case d < 0:
			return false // a full lap behind: ring full
		default:
			pos = q.tail.Load() // lost a race; reload
		}
	}
}

// enqueueBatch publishes one task per value in order (all for station
// st, sharing reply and the submit timestamp t0) and returns how many were
// accepted: it stops at the first value the ring has no room for. Each
// value goes through enqueue, so fullness is decided by the slot sequence
// alone — the one rule the ring trusts.
func (q *mpsc) enqueueBatch(st *station, values []float64, reply func(Verdict), t0 int64) int {
	for i, v := range values {
		if !q.enqueue(task{st: st, value: v, reply: reply, t0: t0}) {
			return i
		}
	}
	return len(values)
}

// dequeue pops the next task (consumer only). ok is false when the head
// slot holds no published task — the ring is empty, or the producer that
// claimed the slot has not finished writing it yet (it will, promptly).
func (q *mpsc) dequeue() (t task, ok bool) {
	s := &q.slots[q.head&q.mask]
	if int64(s.seq.Load())-int64(q.head+1) < 0 {
		return task{}, false
	}
	t = s.t
	s.t = task{} // drop the station/closure refs for the GC
	s.seq.Store(q.head + uint64(len(q.slots)))
	q.head++
	return t, true
}

// empty reports whether the head slot holds a published task.
func (q *mpsc) empty() bool {
	s := &q.slots[q.head&q.mask]
	return int64(s.seq.Load())-int64(q.head+1) < 0
}

// wakeProducerSide is the producer's post-enqueue nudge: if the consumer
// declared itself parked, drop a token in the wake channel (non-blocking;
// one pending token is enough).
func (q *mpsc) wakeProducerSide() {
	if q.parked.Load() {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
}

// forceWake unconditionally queues a wake token (Close uses it so a
// parked consumer observes the shard's closed flag).
func (q *mpsc) forceWake() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}
