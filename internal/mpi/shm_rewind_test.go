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

	"ddr/internal/obs"
)

// Consumer behaviours of TestShmRingRewind.
const (
	rewindFree    = iota // take every record as soon as it is committed
	rewindLagging        // take records only while over a quarter of the ring is occupied
	rewindHeld           // take no record, only skip wrap markers (dead space)
	rewindStalled        // take no record, and skip a wrap marker only once the producer has waited on it
)

// TestShmRingRewind drives one ring with a racing producer and consumer
// (the real writer and the real per-record consumer, no consumer
// goroutine of the world's own). It first repeats one small burst on the
// fresh ring: a record the consumer takes at once, then three it holds
// (stalled), so the producer waits whenever a rewind's marker leaves the
// burst too little room below it. Only the first occurrence may wait:
// the ring learns the burst and rewinds no earlier than it from then on.
//
// Then payloads from 0 B to three times the chunk threshold, so whole
// records and chunk streams both flow. Each cycle runs the consumer
// three ways:
//
//   - free: the ring drains as fast as it fills;
//   - lagging: the ring is never drained again once a quarter full, so
//     the producer cannot rewind and must wrap at the ring end;
//   - held: a burst written on a drained ring is read in place, and every
//     record must end within the burst's occupancy plus the rewind floor
//     (the ring's peak burst, capped at one chunk) plus the largest
//     record — the extent a rewinding ring touches. The held consumer
//     still skips wrap markers: a rewind's dead space counts as occupied
//     until it does, which is what the floor leaves room for.
//
// Then a single message written on a drained ring must rewind exactly when
// the tail is at least the floor (and the record) past the ring start.
// Every message must arrive in order with its bytes intact.
func TestShmRingRewind(t *testing.T) {
	const (
		ring      = 16 << 10
		threshold = 2 << 10
		chunk     = 1 << 10
		tag       = 5
		cycles    = 6
	)
	box := newMailbox(nil)
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
		waits := int64(0) // producer waits the stalled consumer has answered
		for {
			mu.Lock()
			head, tail := r.loadHead(), r.loadTail()
			marker := head != tail && binary.LittleEndian.Uint64(r.data[head&r.mask:])&shmWrapBit != 0
			take := head != tail && (mode == rewindFree || mode == rewindLagging && tail-head > ring/4 ||
				mode == rewindHeld && marker || mode == rewindStalled && marker && r.spaceWaits.Load() > waits)
			if take {
				waits = r.spaceWaits.Load()
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

	const small = 200 // four such records stay under one chunk
	for rep := 0; rep < 5; rep++ {
		drained()
		send(small)
		drained()
		setMode(rewindStalled)
		waits := r.spaceWaits.Load()
		for i := 0; i < 3; i++ {
			send(small)
		}
		if waits = r.spaceWaits.Load() - waits; rep > 0 && waits != 0 {
			t.Errorf("small burst, occurrence %d: %d backpressure waits, want 0 once the ring has carried it", rep+1, waits)
		}
	}
	drained()

	for cycle := 0; cycle < cycles; cycle++ {
		for i := 0; i < 40; i++ {
			send(randomSize())
		}

		setMode(rewindLagging)
		wraps := r.wraps
		for written := 0; written < 3*ring; {
			n := randomSize()
			send(n)
			written += n
		}
		if r.wraps == wraps {
			t.Errorf("cycle %d: a ring never drained did not wrap at its end", cycle)
		}

		drained()
		setMode(rewindHeld)
		floor := int(min(r.peak, chunk))
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
		if extent > occ+floor+largest {
			t.Errorf("cycle %d: burst of %d bytes on a drained ring touched %d bytes, bound %d", cycle, occ, extent, occ+floor+largest)
		}

		drained()
		n := rng.Intn(threshold + 1)
		at, need := r.loadTail()&r.mask, uint64(shmPad(shmWordSize+shmRecHeader+n))
		rewinds, peak := r.rewinds, r.peak
		send(n)
		rewound := r.rewinds == rewinds+1
		if want := at >= max(need, min(peak, chunk)); rewound != want {
			t.Errorf("cycle %d: %d-byte record at offset %d on a drained ring with peak %d: rewound %v, want %v", cycle, need, at, peak, rewound, want)
		}
		if rewound && (r.loadTail()-need)&r.mask != 0 {
			t.Errorf("cycle %d: rewound record written at offset %d, want 0", cycle, (r.loadTail()-need)&r.mask)
		}
	}
	drained()
	if r.rewinds == 0 || r.wraps == 0 {
		t.Errorf("%d rewinds and %d ring-end wraps, want both", r.rewinds, r.wraps)
	}

	for i, n := range sizes {
		data, _, _, err := boxComm(box, 1, 0).Recv(0, tag)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, shmPattern(0, tag, i, n)) {
			t.Fatalf("message %d (%d bytes): arrived out of order or corrupt (%d bytes)", i, n, len(data))
		}
		PutBuffer(data)
	}
}

// TestShmBackpressureAllocs holds a 4 KiB ring full under a producer
// blocked in reserve, which wakes every shmSpaceWait to re-check: the
// wait re-arms one timer per ring, so however often it wakes the process
// allocates nothing while it waits.
func TestShmBackpressureAllocs(t *testing.T) {
	box := newMailbox(nil)
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
	if free := minShmRing - int(r.loadTail()-r.loadHead()); free >= need {
		t.Fatalf("ring not full: %d bytes free for a %d-byte record", free, need)
	}
	reserved := make(chan error, 1)
	go func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		_, err := r.reserve(need, w)
		reserved <- err
	}()
	for r.spaceWaits.Load() < 2 { // blocked, its timer armed
		time.Sleep(time.Millisecond)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	waits := r.spaceWaits.Load()
	allocs := testing.AllocsPerRun(10, func() { time.Sleep(2 * time.Millisecond) })
	waits = r.spaceWaits.Load() - waits
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
	got, _, _, err := boxComm(box, 1, 0).Recv(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	PutBuffer(got)
}

// boxComm is rank self of an n-rank world on communicator context 1 that
// receives into box and sends nothing: the receive side of a test that
// drives a ring world without Launch.
func boxComm(box *mailbox, n, self int) *Comm {
	return &Comm{rank: self, group: identityGroup(n), ctx: 1, box: box}
}

// TestShmTransposeFootprint replays fft_transpose's traffic at the
// default ring geometry: a 16-rank world in which every ordered pair
// carries 4 records of 16 KiB an exchange, one a round, every rank
// sending a round to all its peers before the receivers consume. The
// consumers are driven by the test, so the run is deterministic: over
// successive exchanges each receiver leaves 0 to 3 of the latest rounds'
// records unconsumed, then drains at the exchange's end. Every busy ring
// must touch at most twice its burst plus one record of memory — a ring
// that rewound only once a whole chunk past its start would touch more
// than a chunk — and the receivers' mpi_shm_ring_touched_bytes gauges
// must sum to the rings' touched bytes.
func TestShmTransposeFootprint(t *testing.T) {
	const (
		ranks     = 16
		rounds    = 4
		payload   = 16 << 10
		exchanges = 12
	)
	reg := obs.NewRegistry()
	boxes := make([]*mailbox, ranks)
	for i := range boxes {
		boxes[i] = newMailbox(newTelemetry(reg, nil, i))
		defer boxes[i].close(nil)
	}
	w, err := mapShmWorld(ranks, defaultShmConfig, boxes)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	record := shmPad(shmWordSize + shmRecHeader + payload)
	burst := rounds * record
	data := make([]byte, payload)
	consumed := make([]int, ranks*ranks) // records taken per ring this exchange
	// consume takes records of the (src -> dst) ring up to the want-th of
	// this exchange, skipping wrap markers on the way as the consumer
	// would.
	consume := func(src, dst, want int) {
		r := w.ring(src, dst)
		for head, tail := r.loadHead(), r.loadTail(); head != tail; {
			wrap := binary.LittleEndian.Uint64(r.data[head&r.mask:])&shmWrapBit != 0
			if !wrap && consumed[src*ranks+dst] == want {
				return
			}
			head = w.consumeRecord(src, dst, boxes[dst], nil, head, tail)
			if !wrap {
				consumed[src*ranks+dst]++
			}
		}
	}
	for x := 0; x < exchanges; x++ {
		lag := x % rounds
		clear(consumed)
		for round := 0; round < rounds; round++ {
			for src := 0; src < ranks; src++ {
				tr := &shmTransport{w: w, src: src}
				for dst := 0; dst < ranks; dst++ {
					if dst == src {
						continue
					}
					if err := tr.write(dst, envelope{ctx: 1, src: src, tag: round, data: data}); err != nil {
						t.Fatal(err)
					}
				}
			}
			for src := 0; src < ranks; src++ {
				for dst := 0; dst < ranks; dst++ {
					consume(src, dst, max(round+1-lag, 0))
				}
			}
		}
		for src := 0; src < ranks; src++ {
			for dst := 0; dst < ranks; dst++ {
				consume(src, dst, rounds)
			}
		}
		for dst := 0; dst < ranks; dst++ {
			for i := 0; i < (ranks-1)*rounds; i++ {
				data, _, _, err := boxComm(boxes[dst], ranks, dst).Recv(AnySource, AnyTag)
				if err != nil {
					t.Fatal(err)
				}
				PutBuffer(data)
			}
		}
	}
	var sum, rewinds, touched int64
	bound := uint64(2 * (burst + record))
	for i, r := range w.rings {
		rewinds += r.rewinds
		src, dst := i/ranks, i%ranks
		if src == dst && r.touched != 0 {
			t.Errorf("idle ring %d->%d touched %d bytes", src, dst, r.touched)
		}
		if r.touched > bound {
			t.Errorf("ring %d->%d touched %d bytes carrying %d-byte bursts, bound %d", src, dst, r.touched, burst, bound)
		}
		sum += int64(r.touched)
	}
	for rank := range boxes {
		touched += reg.Gauge("mpi_shm_ring_touched_bytes", "", obs.RankLabel(rank)).Value()
	}
	if touched != sum || rewinds == 0 {
		t.Errorf("receivers' touched bytes %d with %d rewinds, want the rings' sum %d and rewinds", touched, rewinds, sum)
	}
}
