package mpi

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
)

// Consumer behaviours of TestShmRingRewind.
const (
	rewindFree    = iota // take every record as soon as it is committed
	rewindLagging        // take records only while over a quarter of the ring is occupied
	rewindHeld           // take no record, only skip wrap markers (dead space)
)

// TestShmRingRewind drives one ring with a racing producer and consumer
// (the real writer and the real per-record consumer, no consumer
// goroutine of the world's own) and payloads from 0 B to three times the
// chunk threshold, so whole records and chunk streams both flow. Each
// cycle runs the consumer three ways:
//
//   - free: the ring drains as fast as it fills;
//   - lagging: the ring is never drained again once a quarter full, so
//     the producer cannot rewind and must wrap at the ring end;
//   - held: a burst written on a drained ring is read in place, and every
//     record must end within the burst's occupancy plus one chunk plus
//     the largest record — the extent a rewinding ring touches. The held
//     consumer still skips wrap markers: a rewind's dead space counts as
//     occupied until it does, which is what the one-chunk floor leaves
//     room for.
//
// Then a single message written on a drained ring must rewind exactly when
// the tail is at least one chunk (and the record) past the ring start.
// Every message must arrive in order with its bytes intact.
func TestShmRingRewind(t *testing.T) {
	const (
		ring      = 16 << 10
		threshold = 2 << 10
		chunk     = 1 << 10
		tag       = 5
		cycles    = 6
	)
	box := newMailbox()
	defer box.close(nil)
	w, err := mapShmWorld(1, shmConfig{ringSize: ring, chunkThreshold: threshold, chunkSize: chunk}, []*mailbox{box})
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	r, tr := w.ring(0, 0), &shmTransport{w: w}
	largest := shmPad(shmWordSize + shmRecHeader + threshold) // chunk records are smaller

	var mu sync.Mutex // held by the consumer per record, and to change mode
	mode := rewindFree
	setMode := func(m int) {
		mu.Lock()
		mode = m
		mu.Unlock()
	}
	done := make(chan struct{})
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		streams := make(map[uint64]*shmStream)
		for {
			mu.Lock()
			head, tail := r.loadHead(), r.loadTail()
			take := head != tail && (mode == rewindFree || mode == rewindLagging && tail-head > ring/4 ||
				mode == rewindHeld && binary.LittleEndian.Uint64(r.data[head&r.mask:])&shmWrapBit != 0)
			if take {
				w.consumeRecord(0, 0, box, streams, head, tail)
				select {
				case r.space <- struct{}{}:
				default:
				}
			}
			mu.Unlock()
			if !take {
				select {
				case <-done:
					return
				default:
					runtime.Gosched()
				}
			}
		}
	}()
	defer func() { // before the ring is unmapped
		close(done)
		consumer.Wait()
	}()
	drained := func() {
		setMode(rewindFree)
		for r.loadHead() != r.loadTail() {
			runtime.Gosched()
		}
	}

	rng := rand.New(rand.NewSource(1))
	var sizes []int
	send := func(n int) {
		i := len(sizes)
		sizes = append(sizes, n)
		if err := tr.write(0, envelope{ctx: 1, tag: tag, data: shmPattern(0, tag, i, n)}); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
	randomSize := func() int { return rng.Intn(3*threshold + 1) }

	for cycle := 0; cycle < cycles; cycle++ {
		for i := 0; i < 40; i++ {
			send(randomSize())
		}

		setMode(rewindLagging)
		wraps := w.wraps.Load()
		for written := 0; written < 3*ring; {
			n := randomSize()
			send(n)
			written += n
		}
		if w.wraps.Load() == wraps {
			t.Errorf("cycle %d: a ring never drained did not wrap at its end", cycle)
		}

		drained()
		setMode(rewindHeld)
		for written := 0; written < ring/8; {
			n := randomSize()
			send(n)
			written += n
		}
		occ, extent := 0, 0
		for pos := r.loadHead(); pos != r.loadTail(); {
			at := pos & r.mask
			rec, wrap, err := decodeShmRecord(r.data[at:])
			if err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
			if wrap {
				pos += ring - at
				continue
			}
			step := shmPad(rec.hdr + rec.n)
			occ += step
			extent = max(extent, int(at)+step)
			pos += uint64(step)
		}
		if extent > occ+chunk+largest {
			t.Errorf("cycle %d: burst of %d bytes on a drained ring touched %d bytes, bound %d", cycle, occ, extent, occ+chunk+largest)
		}

		drained()
		n := rng.Intn(threshold + 1)
		at, need := r.loadTail()&r.mask, uint64(shmPad(shmWordSize+shmRecHeader+n))
		rewinds := w.rewinds.Load()
		send(n)
		rewound := w.rewinds.Load() == rewinds+1
		if want := at >= max(chunk, need); rewound != want {
			t.Errorf("cycle %d: %d-byte record at offset %d on a drained ring: rewound %v, want %v", cycle, need, at, rewound, want)
		}
		if rewound && (r.loadTail()-need)&r.mask != 0 {
			t.Errorf("cycle %d: rewound record written at offset %d, want 0", cycle, (r.loadTail()-need)&r.mask)
		}
	}
	drained()
	if st := w.stats(); st.Rewinds == 0 || st.Wraps == 0 {
		t.Errorf("%d rewinds and %d ring-end wraps, want both", st.Rewinds, st.Wraps)
	}

	for i, n := range sizes {
		e, err := box.get(nil, 1, 0, tag, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e.data, shmPattern(0, tag, i, n)) {
			t.Fatalf("message %d (%d bytes): arrived out of order or corrupt (%d bytes)", i, n, len(e.data))
		}
		PutBuffer(e.data)
	}
}

// TestShmBackpressureAllocs holds a 4 KiB ring full under a producer
// blocked in reserve, which wakes every shmSpaceWait to re-check: the
// wait re-arms one timer per ring, so however often it wakes the process
// allocates nothing while it waits.
func TestShmBackpressureAllocs(t *testing.T) {
	box := newMailbox()
	defer box.close(nil)
	w, err := mapShmWorld(1, wholeRecords, []*mailbox{box})
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	r := w.ring(0, 0)
	// One record leaving less room than the next one needs.
	e := envelope{ctx: 1}
	n := minShmRing - shmMaxHeader - shmWordSize
	if err := r.writeRecord(w, &e, shmRecMsg, 0, 0, []Part{{Buf: make([]byte, n)}}, n); err != nil {
		t.Fatal(err)
	}
	need := shmPad(shmWordSize + shmRecHeader + 256)
	if free := minShmRing - int(r.occupied()); free >= need {
		t.Fatalf("ring not full: %d bytes free for a %d-byte record", free, need)
	}
	reserved := make(chan error, 1)
	go func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		_, err := r.reserve(need, w)
		reserved <- err
	}()
	for w.backpressure.Load() < 2 { // blocked, its timer armed
		time.Sleep(time.Millisecond)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	waits := w.backpressure.Load()
	allocs := testing.AllocsPerRun(10, func() { time.Sleep(2 * time.Millisecond) })
	waits = w.backpressure.Load() - waits
	// Release the producer: consume the record it is waiting behind.
	w.consumeRecord(0, 0, box, nil, r.loadHead(), r.loadTail())
	if err := <-reserved; err != nil {
		t.Fatal(err)
	}
	if waits < 10 {
		t.Fatalf("producer woke %d times in 20 ms, want it waiting on its timer", waits)
	}
	if allocs > 0 {
		t.Errorf("a producer waiting on a full ring allocates %.0f objects per 2 ms (%d wake-ups in all)", allocs, waits)
	}
	got, err := box.get(nil, 1, 0, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	PutBuffer(got.data)
}
