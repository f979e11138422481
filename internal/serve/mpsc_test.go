package serve

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// mkTask builds a dequeue-identifiable task (value encodes identity; the
// queue never inspects fields).
func mkTask(v float64) task { return task{value: v} }

// TestMPSCLayout pins the ring to whole cache lines — header, tail, head
// and parked/wake on one line each — so that the allocator keeps every
// ring line-aligned and neighbouring rings never false-share.
func TestMPSCLayout(t *testing.T) {
	var q mpsc
	if size := unsafe.Sizeof(q); size%cacheLine != 0 {
		t.Fatalf("mpsc is %d bytes, not a whole number of %d-byte lines", size, cacheLine)
	}
	lines := []uintptr{
		unsafe.Offsetof(q.slots) / cacheLine,
		unsafe.Offsetof(q.tail) / cacheLine,
		unsafe.Offsetof(q.head) / cacheLine,
		unsafe.Offsetof(q.parked) / cacheLine,
	}
	for i, l := range lines {
		if l != uintptr(i) {
			t.Fatalf("field group %d sits on line %d", i, l)
		}
	}
	if unsafe.Offsetof(q.wake)/cacheLine != lines[3] {
		t.Fatal("wake is not on parked's line")
	}
}

// TestMPSCFIFO drives more items than the capacity through the ring in
// rounds and checks strict FIFO order.
func TestMPSCFIFO(t *testing.T) {
	q := newMPSC(8)
	if q.cap() != 8 {
		t.Fatalf("cap = %d, want 8", q.cap())
	}
	next := 0.0
	want := 0.0
	for round := 0; round < 10; round++ {
		for q.enqueue(mkTask(next)) {
			next++
		}
		for {
			got, ok := q.dequeue()
			if !ok {
				break
			}
			if got.value != want {
				t.Fatalf("dequeue = %v, want %v", got.value, want)
			}
			want++
		}
	}
	if want != next || want == 0 {
		t.Fatalf("drained %v of %v enqueued", want, next)
	}
}

// TestMPSCExactFull: fullness is detected exactly at capacity, not
// approximately, and one free slot is enough to accept again.
func TestMPSCExactFull(t *testing.T) {
	q := newMPSC(8)
	for i := 0; i < 8; i++ {
		if !q.enqueue(mkTask(float64(i))) {
			t.Fatalf("enqueue %d rejected below capacity", i)
		}
	}
	if q.enqueue(mkTask(99)) {
		t.Fatal("enqueue accepted into a full ring")
	}
	if _, ok := q.dequeue(); !ok {
		t.Fatal("dequeue from full ring failed")
	}
	// The freed slot is detected exactly, via its sequence.
	if !q.enqueue(mkTask(8)) {
		t.Fatal("enqueue rejected with one slot free")
	}
}

// TestMPSCEnqueueBatch: a batch accepts up to the free space and keeps
// slot order.
func TestMPSCEnqueueBatch(t *testing.T) {
	q := newMPSC(8)
	vals := []float64{0, 1, 2, 3, 4}
	if n := q.enqueueBatch(nil, vals, nil, 0); n != 5 {
		t.Fatalf("batch accepted %d, want 5", n)
	}
	// 3 slots left: an oversized batch is truncated, not rejected.
	if n := q.enqueueBatch(nil, []float64{5, 6, 7, 8, 9}, nil, 0); n != 3 {
		t.Fatalf("batch accepted %d, want 3", n)
	}
	if n := q.enqueueBatch(nil, []float64{99}, nil, 0); n != 0 {
		t.Fatalf("batch accepted %d into a full ring", n)
	}
	for i := 0; i < 8; i++ {
		got, ok := q.dequeue()
		if !ok || got.value != float64(i) {
			t.Fatalf("dequeue %d = %v ok=%v", i, got.value, ok)
		}
	}
}

// TestMPSCBatchAfterLappedTail is the regression test for the batch
// reservation that sized itself from a lagging published head: once
// single-slot enqueues had pushed tail a lap past that stale head, the
// unsigned free-space estimate underflowed and the batch overwrote
// undrained slots. Single goroutine, deterministic.
func TestMPSCBatchAfterLappedTail(t *testing.T) {
	q := newMPSC(8)
	for i := 0; i < 8; i++ {
		if !q.enqueue(mkTask(float64(i))) {
			t.Fatalf("enqueue %d rejected below capacity", i)
		}
	}
	for i := 0; i < 4; i++ {
		if got, ok := q.dequeue(); !ok || got.value != float64(i) {
			t.Fatalf("dequeue %d = %v ok=%v", i, got.value, ok)
		}
	}
	for i := 8; i < 12; i++ {
		if !q.enqueue(mkTask(float64(i))) {
			t.Fatalf("enqueue %d rejected with a slot free", i)
		}
	}
	// tail = 12, head = 4: the ring is exactly full.
	if n := q.enqueueBatch(nil, []float64{100, 101, 102, 103}, nil, 0); n != 0 {
		t.Fatalf("batch accepted %d into a full ring", n)
	}
	for i := 4; i < 12; i++ {
		if got, ok := q.dequeue(); !ok || got.value != float64(i) {
			t.Fatalf("dequeue = %v ok=%v, want task %d intact", got.value, ok, i)
		}
	}
	if _, ok := q.dequeue(); ok {
		t.Fatal("ring should be empty")
	}
}

// TestMPSCConcurrent exercises the full producer/consumer protocol under
// -race: P producers (mixing single and batch enqueue) against the
// parked-consumer wake dance, asserting nothing is lost, nothing is
// duplicated, and per-producer order survives.
func TestMPSCConcurrent(t *testing.T) {
	const producers = 8
	perProducer := 4000
	if testing.Short() {
		perProducer = 800
	}
	q := newMPSC(64)
	closed := make(chan struct{})

	got := make([]int, producers) // consumer-private: next expected per producer
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for {
			tk, ok := q.dequeue()
			if !ok {
				q.parked.Store(true)
				if !q.empty() {
					q.parked.Store(false)
					continue
				}
				select {
				case <-q.wake:
					q.parked.Store(false)
					continue
				case <-closed:
					q.parked.Store(false)
					if q.empty() {
						return
					}
					continue
				}
			}
			p := int(tk.value) / perProducer
			seq := int(tk.value) % perProducer
			if got[p] != seq {
				t.Errorf("producer %d: item %d arrived, want %d", p, seq, got[p])
				return
			}
			got[p]++
		}
	}()

	var prod sync.WaitGroup
	for p := 0; p < producers; p++ {
		prod.Add(1)
		go func(p int) {
			defer prod.Done()
			base := float64(p * perProducer)
			i := 0
			for i < perProducer {
				if p%2 == 0 {
					if q.enqueue(mkTask(base + float64(i))) {
						q.wakeProducerSide()
						i++
					} else {
						runtime.Gosched() // full: let the consumer run
					}
					continue
				}
				batch := []float64{base + float64(i)}
				if i+1 < perProducer {
					batch = append(batch, base+float64(i)+1)
				}
				// enqueueBatch stores tasks with a shared st/reply; encode
				// identity through per-slot values instead.
				n := 0
				for _, v := range batch {
					if !q.enqueue(task{value: v}) {
						break
					}
					n++
				}
				if n > 0 {
					q.wakeProducerSide()
				} else {
					runtime.Gosched()
				}
				i += n
			}
		}(p)
	}
	prod.Wait()
	close(closed)
	q.forceWake()
	consumer.Wait()
	for p, n := range got {
		if n != perProducer {
			t.Fatalf("producer %d: consumer saw %d of %d items", p, n, perProducer)
		}
	}
}

// TestMPSCBatchConcurrent hammers enqueueBatch specifically from many
// producers.
func TestMPSCBatchConcurrent(t *testing.T) {
	const producers = 8
	perProducer := 4096
	if testing.Short() {
		perProducer = 1024
	}
	q := newMPSC(128)
	closed := make(chan struct{})
	var sum, count int64

	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for {
			tk, ok := q.dequeue()
			if !ok {
				q.parked.Store(true)
				if !q.empty() {
					q.parked.Store(false)
					continue
				}
				select {
				case <-q.wake:
					q.parked.Store(false)
					continue
				case <-closed:
					q.parked.Store(false)
					if q.empty() {
						return
					}
					continue
				}
			}
			sum += int64(tk.value)
			count++
		}
	}()

	var prod sync.WaitGroup
	for p := 0; p < producers; p++ {
		prod.Add(1)
		go func(p int) {
			defer prod.Done()
			vals := make([]float64, 0, 16)
			i := 0
			for i < perProducer {
				hi := i + 16
				if hi > perProducer {
					hi = perProducer
				}
				vals = vals[:0]
				for v := i; v < hi; v++ {
					vals = append(vals, float64(p*perProducer+v))
				}
				off := 0
				for off < len(vals) {
					n := q.enqueueBatch(nil, vals[off:], nil, 0)
					if n > 0 {
						q.wakeProducerSide()
					} else {
						runtime.Gosched()
					}
					off += n
				}
				i = hi
			}
		}(p)
	}
	prod.Wait()
	close(closed)
	q.forceWake()
	consumer.Wait()

	total := int64(producers * perProducer)
	wantSum := total * (total - 1) / 2
	if count != total || sum != wantSum {
		t.Fatalf("consumer saw %d items (sum %d), want %d (sum %d)", count, sum, total, wantSum)
	}
}
