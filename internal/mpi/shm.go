// Shared-memory transport: mmap-backed SPSC ring buffers for co-located
// ranks. Every directed (sender, receiver) pair owns one power-of-2 ring
// carved out of a single MAP_SHARED region, so the data path is exactly
// what two processes on one node would use — a file-backed mapping both
// sides address directly — while notification rides in-process wakeup
// channels (the stand-in for a futex).
//
// Ring protocol (seqlock-style publication):
//
//   - head and tail are monotonically increasing byte counters in the
//     ring's 128-byte header block (one cache line each). The producer
//     owns tail, the consumer owns head; each side reads the other's
//     counter with an acquire load and publishes its own with a release
//     store, so a record's bytes are fully written before the tail store
//     that makes them visible — the consumer can never observe a
//     half-written record.
//   - A record is an 8-byte descriptor word (payload length, type, flags,
//     wrap bit), a 24-byte fixed header (ctx, src, tag, seq), optional
//     extensions (chunk lane: stream id + total; trace context), and the
//     payload, padded to 8 bytes. Records never straddle the ring end: a
//     producer that would wrap emits a wrap marker (descriptor word with
//     the wrap bit) and restarts at offset zero.
//   - Rewind: a producer that finds its ring drained (head == tail, so
//     the consumer is done with every byte) with the tail past its
//     floor — at least the record, and at least the largest burst of
//     live record bytes the ring has carried, capped at one chunk —
//     emits the same wrap marker early and restarts at offset zero. A
//     ring's pages are then touched up to about twice its largest burst,
//     and never past its peak occupancy plus one chunk: n*n rings cost
//     memory in proportion to the bytes in flight. The floor is what
//     keeps a rewind from costing a wait: the marker's dead space counts
//     as occupied until the consumer skips it, and the floor leaves a
//     burst no larger than one the ring has already carried room below
//     the marker meanwhile. The first larger burst pays one wait, and
//     its demand raises the floor. ShmStats counts rewinds apart from
//     ring-end wraps, and the bytes the rings have touched.
//   - Payloads above the chunk threshold stream as bulk-lane chunk
//     records, reassembled into one arena buffer pinned in the receiving
//     mailbox (the same mechanism as TCP chunked streaming). A message
//     larger than the ring therefore still flows, and the ring never
//     holds more than one chunk of it at a time.
//
// One copy per side: Send writes every payload straight from the
// caller's buffer into the ring (the write is synchronous, so there is
// no staging copy at any size), SendTyped packs a message that fits one
// record straight into it from the owner's buffers, and the consumer
// unpacks a whole-message record straight into the receiver's posted
// parts when a post of exactly its packed size is waiting (see posted.go) —
// into an arena payload only otherwise, and always for chunk streams and
// for sequenced (fault-injected) messages, which the mailbox must be able
// to drop as duplicates.
package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"ddr/internal/obs"
)

// shmConfig is the ring geometry. Every world runs defaultShmConfig;
// tests shrink it to reach wraps, rewinds and chunk streams with small
// payloads. Bigger rings are not faster: measured throughput drops on
// both the small-message storm and the 64 MiB bulk shape at 2-4 MiB
// rings, where a 1 MiB ring's 256 KiB chunks still fit in cache.
type shmConfig struct {
	// ringSize is the per-(sender,receiver) ring capacity in bytes, a
	// power of two. A world of n ranks reserves n*n rings of address
	// space, but a drained ring rewinds to its start once its tail is past
	// the largest burst it has carried (capped at one chunk), so each
	// touches about twice that burst of memory.
	ringSize int
	// chunkThreshold is the payload size above which a message streams as
	// bulk-lane chunk records instead of one record. It must stay below
	// what one record can carry (ringSize - shmMaxHeader - shmWordSize),
	// or the producer would wedge on a record that never fits.
	chunkThreshold int
	// chunkSize is the payload size of each bulk-lane chunk record, at
	// most ringSize/4 so a chunk plus its header can never deadlock a
	// ring. It also caps a ring's rewind floor.
	chunkSize int
}

const (
	shmRingSize        = 1 << 20
	shmChunkThreshold  = 256 << 10
	shmChunkSize       = shmRingSize / 4
	shmRingHeaderBytes = 128 // head + tail, one cache line apart
	shmSpaceWait       = 100 * time.Microsecond
)

var defaultShmConfig = shmConfig{
	ringSize:       shmRingSize,
	chunkThreshold: shmChunkThreshold,
	chunkSize:      shmChunkSize,
}

// Record descriptor word layout (little endian):
//
//	bits  0..31  payload length
//	bits 32..39  record type (shmRecMsg / shmRecChunk)
//	bits 40..47  flags (shmFlagTrace)
//	bit  63      wrap marker: skip to ring start, no record follows
const (
	shmWordSize  = 8
	shmRecHeader = 24 // ctx u32, src u32, tag u32, pad u32, seq u64
	shmChunkExt  = 16 // stream u32, pad u32, total u64
	shmTraceExt  = 16 // exchange u64, round u32, span u32
	shmMaxHeader = shmWordSize + shmRecHeader + shmChunkExt + shmTraceExt

	shmRecMsg   byte = 1
	shmRecChunk byte = 2

	shmFlagTrace byte = 0x01
	shmWrapBit        = uint64(1) << 63
)

// errShmProto classifies malformed ring records — only reachable through
// memory corruption or a decoder bug, but the decoder still refuses to
// walk garbage.
var errShmProto = errors.New("mpi: shm ring protocol error")

// shmRecord is the decoded form of one ring record header.
type shmRecord struct {
	typ    byte
	flags  byte
	n      int // payload bytes
	ctx    uint32
	src    int
	tag    int
	seq    uint64
	stream uint32 // chunk records only
	total  uint64 // chunk records only
	tc     TraceContext
	hdr    int // header bytes consumed (payload starts here)
}

// decodeShmRecord parses one record header from the start of b (which
// must begin at a record boundary). It returns the parsed header; the
// caller slices the payload from b[rec.hdr : rec.hdr+rec.n]. Wrap
// markers decode as typ 0 with wrap=true.
func decodeShmRecord(b []byte) (rec shmRecord, wrap bool, err error) {
	if len(b) < shmWordSize {
		return rec, false, fmt.Errorf("%w: truncated descriptor word", errShmProto)
	}
	word := binary.LittleEndian.Uint64(b)
	if word&shmWrapBit != 0 {
		return rec, true, nil
	}
	rec.n = int(uint32(word))
	rec.typ = byte(word >> 32)
	rec.flags = byte(word >> 40)
	if rec.typ != shmRecMsg && rec.typ != shmRecChunk {
		return rec, false, fmt.Errorf("%w: unknown record type %d", errShmProto, rec.typ)
	}
	if rec.flags&^shmFlagTrace != 0 {
		return rec, false, fmt.Errorf("%w: unknown record flags %#x", errShmProto, rec.flags)
	}
	need := shmWordSize + shmRecHeader
	if rec.typ == shmRecChunk {
		need += shmChunkExt
	}
	if rec.flags&shmFlagTrace != 0 {
		need += shmTraceExt
	}
	if len(b) < need {
		return rec, false, fmt.Errorf("%w: truncated record header (%d of %d bytes)", errShmProto, len(b), need)
	}
	h := b[shmWordSize:]
	rec.ctx = binary.LittleEndian.Uint32(h)
	rec.src = int(binary.LittleEndian.Uint32(h[4:]))
	rec.tag = int(int32(binary.LittleEndian.Uint32(h[8:])))
	rec.seq = binary.LittleEndian.Uint64(h[16:])
	h = h[shmRecHeader:]
	if rec.typ == shmRecChunk {
		rec.stream = binary.LittleEndian.Uint32(h)
		rec.total = binary.LittleEndian.Uint64(h[8:])
		if rec.total == 0 || rec.total > maxChunkTotal {
			return rec, false, fmt.Errorf("%w: chunk stream of %d bytes out of range", errShmProto, rec.total)
		}
		h = h[shmChunkExt:]
	}
	if rec.flags&shmFlagTrace != 0 {
		rec.tc = TraceContext{
			Exchange: binary.LittleEndian.Uint64(h),
			Round:    binary.LittleEndian.Uint32(h[8:]),
			Span:     binary.LittleEndian.Uint32(h[12:]),
		}
	}
	rec.hdr = need
	if rec.n < 0 || uint64(rec.n) > uint64(len(b)-need) {
		return rec, false, fmt.Errorf("%w: %d-byte payload overruns record", errShmProto, rec.n)
	}
	return rec, false, nil
}

// shmRing is one directed ring: a view over the shared region plus the
// in-process wakeup channel standing in for a futex on the producer
// side (the consumer side shares one wakeup per receiving rank). The
// ring protocol itself is SPSC; mu serializes the possibly-concurrent
// senders of one rank (the transport contract allows concurrent Sends)
// down to the single producer the protocol requires, and in doing so
// also preserves per-(sender,receiver) message order across chunked
// streams.
type shmRing struct {
	hdr  []byte // 128-byte header block (head at 0, tail at 64)
	data []byte // power-of-2 payload area
	mask uint64
	dst  int // the receiving rank, whose touched bytes this ring adds to

	mu sync.Mutex // serializes producers; consumer never takes it
	// Producer state, guarded by mu. peak is the most live record bytes
	// the ring has had to hold — committed, or committed plus a record
	// reserve could not place — and sets the rewind floor. dead is the
	// span of the last wrap marker written, which ends at tail position
	// deadEnd and stays in tail-head until the consumer skips it.
	// touched is the highest data offset ever written.
	peak, dead, deadEnd, touched uint64

	// space is nudged by the consumer after it advances head, releasing
	// a producer blocked on a full ring.
	space chan struct{}
	timer *time.Timer // bounds a producer's wait on space; guarded by mu
}

func (r *shmRing) headPtr() *uint64 { return (*uint64)(unsafe.Pointer(&r.hdr[0])) }
func (r *shmRing) tailPtr() *uint64 { return (*uint64)(unsafe.Pointer(&r.hdr[64])) }

func (r *shmRing) loadHead() uint64 { return atomic.LoadUint64(r.headPtr()) }
func (r *shmRing) loadTail() uint64 { return atomic.LoadUint64(r.tailPtr()) }

// occupied returns the bytes currently committed and unconsumed.
func (r *shmRing) occupied() uint64 { return r.loadTail() - r.loadHead() }

// shmPad rounds a record length up to the 8-byte ring alignment.
func shmPad(n int) int { return (n + 7) &^ 7 }

// live returns the record bytes committed and unconsumed when the
// consumer is at head and the producer at tail: the occupancy less the
// dead span of a wrap marker not yet skipped. Producer-side; the caller
// holds r.mu.
func (r *shmRing) live(head, tail uint64) uint64 {
	if head < r.deadEnd {
		return tail - head - r.dead
	}
	return tail - head
}

// touch raises the ring's high-water data offset to end, adding the rise
// to the receiving rank's touched bytes. Producer-side; the caller holds
// r.mu.
func (r *shmRing) touch(w *shmWorld, end uint64) {
	if end > r.touched {
		w.touchGauge[r.dst].Load().SetMax(w.touched[r.dst].Add(int64(end - r.touched)))
		r.touched = end
	}
}

// reserve blocks until at least need contiguous bytes are writable at
// the tail, emitting a wrap marker when the record would straddle the
// ring end — or, rewinding, when the ring is drained and the tail is at
// least the record and the ring's peak burst (capped at one chunk) past
// offset zero. A record it cannot place raises the peak to the live
// bytes plus the record before it waits, so the next burst that large
// finds room below a rewind's marker. It returns the write position, or
// an error when the world shuts down while waiting. Producer-side only;
// the caller holds r.mu.
func (r *shmRing) reserve(need int, w *shmWorld) (pos uint64, err error) {
	size := uint64(len(r.data))
	spins := 0
	for {
		// close unmaps the region once no producer holds a ring lock, so
		// a producer checks for it before every touch of ring memory.
		if w.isClosed() {
			return 0, ErrClosed
		}
		tail, head := r.loadTail(), r.loadHead()
		free := size - (tail - head)
		at := tail & r.mask
		contig := size - at
		rewind := head == tail && at >= max(uint64(need), min(r.peak, uint64(w.cfg.chunkSize)))
		required := uint64(need)
		if uint64(need) > contig {
			// Wrap marker consumes the ring tail; the record restarts at
			// offset zero.
			required = contig + uint64(need)
		}
		if rewind || free >= required {
			if rewind || uint64(need) > contig {
				binary.LittleEndian.PutUint64(r.data[at:], shmWrapBit)
				r.touch(w, at+shmWordSize)
				tail += contig
				r.dead, r.deadEnd = contig, tail
				atomic.StoreUint64(r.tailPtr(), tail)
				if rewind {
					w.rewinds.Add(1)
				} else {
					w.wraps.Add(1)
				}
				continue
			}
			return tail, nil
		}
		r.peak = max(r.peak, r.live(head, tail)+uint64(need))
		if spins < 64 {
			spins++
			runtime.Gosched()
			continue
		}
		w.backpressure.Add(1)
		// The timeout bounds the lost-wakeup window; the loop re-checks.
		// One timer per ring, re-armed under the producer lock, keeps a
		// wait from allocating.
		if r.timer == nil {
			r.timer = time.NewTimer(shmSpaceWait)
		} else {
			r.timer.Reset(shmSpaceWait)
		}
		select {
		case <-r.space:
		case <-w.stop:
			return 0, ErrClosed
		case <-r.timer.C:
		}
		r.timer.Stop()
	}
}

// publish commits n bytes written at the reserved position and raises
// the ring's peak to the live bytes it now holds. Producer-side; the
// caller holds r.mu.
func (r *shmRing) publish(pos uint64, n int) {
	tail := pos + uint64(n)
	atomic.StoreUint64(r.tailPtr(), tail)
	r.peak = max(r.peak, r.live(r.loadHead(), tail))
}

// writeRecord reserves, fills, and publishes one record whose payload is
// the n packed bytes of parts, packed straight into the ring.
func (r *shmRing) writeRecord(w *shmWorld, e *envelope, typ byte, stream uint32, total uint64, parts []Part, n int) error {
	flags := byte(0)
	hdrLen := shmWordSize + shmRecHeader
	if typ == shmRecChunk {
		hdrLen += shmChunkExt
	}
	if e.tc.Exchange != 0 {
		flags = shmFlagTrace
		hdrLen += shmTraceExt
	}
	rec := shmPad(hdrLen + n)
	pos, err := r.reserve(rec, w)
	if err != nil {
		return err
	}
	at := pos & r.mask
	r.touch(w, at+uint64(rec))
	b := r.data[at:]
	word := uint64(uint32(n)) | uint64(typ)<<32 | uint64(flags)<<40
	// The descriptor word is written along with the rest of the header
	// and payload before the tail store in publish makes any of it
	// visible; the release/acquire pair on tail is the seqlock edge.
	binary.LittleEndian.PutUint64(b, word)
	h := b[shmWordSize:]
	binary.LittleEndian.PutUint32(h, e.ctx)
	binary.LittleEndian.PutUint32(h[4:], uint32(e.src))
	binary.LittleEndian.PutUint32(h[8:], uint32(int32(e.tag)))
	binary.LittleEndian.PutUint32(h[12:], 0)
	binary.LittleEndian.PutUint64(h[16:], e.seq)
	h = h[shmRecHeader:]
	if typ == shmRecChunk {
		binary.LittleEndian.PutUint32(h, stream)
		binary.LittleEndian.PutUint32(h[4:], 0)
		binary.LittleEndian.PutUint64(h[8:], total)
		h = h[shmChunkExt:]
	}
	if flags&shmFlagTrace != 0 {
		binary.LittleEndian.PutUint64(h, e.tc.Exchange)
		binary.LittleEndian.PutUint32(h[8:], e.tc.Round)
		binary.LittleEndian.PutUint32(h[12:], e.tc.Span)
	}
	packParts(b[hdrLen:hdrLen+n], parts)
	r.publish(pos, rec)
	return nil
}

// shmStream is a bulk-lane chunk stream being reassembled on the
// consumer side, keyed by (sender, stream id). A discard stream (a replay
// the mailbox rejected) still reassembles into its own buffer, which is
// recycled once the stream ends.
type shmStream struct {
	env     envelope
	fill    int
	discard bool
}

// drop ends a stream the consumer will not complete: a pinned one is
// unlinked from the mailbox, a discard stream's buffer recycled.
func (st *shmStream) drop(box *mailbox) {
	if st.discard {
		PutBuffer(st.env.data)
	} else {
		box.removePending(st.env.pend)
	}
}

// ShmStats is a point-in-time snapshot of a shared-memory world's
// transport counters.
type ShmStats struct {
	BytesOut, BytesIn   int64 // payload bytes through the rings
	Records             int64 // records published (messages and chunks)
	ChunksOut, ChunksIn int64
	Wraps               int64 // wrap markers emitted at the ring end
	Rewinds             int64 // wrap markers emitted early, on a drained ring
	BackpressureEvents  int64 // producer waits on a full ring
	RingOccupancy       int64 // bytes currently committed and unconsumed
	TouchedBytes        int64 // sum over rings of the highest data offset ever written
}

// shmWorld is one world's shared region: n*n rings, one consumer
// goroutine per rank, and the counters every rank's transport view
// mirrors into its telemetry.
type shmWorld struct {
	n     int
	cfg   shmConfig
	mem   []byte     // the MAP_SHARED region (nil after close)
	mmap  bool       // mem came from syscall.Mmap (vs heap fallback)
	rings []*shmRing // [src*n+dst]
	boxes []*mailbox
	wakes []chan struct{} // per-receiver wakeup

	stop    chan struct{}
	closed  atomic.Bool
	wg      sync.WaitGroup // consumer goroutines
	closeMu sync.Mutex

	bytesOut, bytesIn   atomic.Int64
	records             atomic.Int64
	chunksOut, chunksIn atomic.Int64
	wraps, rewinds      atomic.Int64
	backpressure        atomic.Int64
	occupancy           atomic.Int64
	touched             []atomic.Int64 // per receiving rank, over its inbound rings

	// Per-rank obs mirrors, attached via AttachTelemetry; nil entries
	// cost one atomic load on the hot path.
	occGauge   []atomic.Pointer[obs.Gauge]
	touchGauge []atomic.Pointer[obs.Gauge]
	inCtr      []atomic.Pointer[obs.Counter]
	outCtr     []atomic.Pointer[obs.Counter]
}

func (w *shmWorld) isClosed() bool { return w.closed.Load() }

// Stats snapshots the world-wide transport counters.
func (w *shmWorld) stats() ShmStats {
	var touched int64
	for i := range w.touched {
		touched += w.touched[i].Load()
	}
	return ShmStats{
		BytesOut:           w.bytesOut.Load(),
		BytesIn:            w.bytesIn.Load(),
		Records:            w.records.Load(),
		ChunksOut:          w.chunksOut.Load(),
		ChunksIn:           w.chunksIn.Load(),
		Wraps:              w.wraps.Load(),
		Rewinds:            w.rewinds.Load(),
		BackpressureEvents: w.backpressure.Load(),
		RingOccupancy:      w.occupancy.Load(),
		TouchedBytes:       touched,
	}
}

// newShmWorld maps the shared region and starts one consumer per rank.
// boxes[i] is rank i's mailbox (shared with the caller, who closes them).
func newShmWorld(n int, cfg shmConfig, boxes []*mailbox) (*shmWorld, error) {
	w, err := mapShmWorld(n, cfg, boxes)
	if err != nil {
		return nil, err
	}
	for d := 0; d < n; d++ {
		w.wg.Add(1)
		go w.consume(d)
	}
	return w, nil
}

// mapShmWorld maps the shared region and carves it into rings, starting
// no consumer.
func mapShmWorld(n int, cfg shmConfig, boxes []*mailbox) (*shmWorld, error) {
	total := n * n * (shmRingHeaderBytes + cfg.ringSize)
	mem, mapped, err := shmMap(total)
	if err != nil {
		return nil, err
	}
	w := &shmWorld{
		n:          n,
		cfg:        cfg,
		mem:        mem,
		mmap:       mapped,
		rings:      make([]*shmRing, n*n),
		boxes:      boxes,
		wakes:      make([]chan struct{}, n),
		stop:       make(chan struct{}),
		touched:    make([]atomic.Int64, n),
		occGauge:   make([]atomic.Pointer[obs.Gauge], n),
		touchGauge: make([]atomic.Pointer[obs.Gauge], n),
		inCtr:      make([]atomic.Pointer[obs.Counter], n),
		outCtr:     make([]atomic.Pointer[obs.Counter], n),
	}
	hdrBase := 0
	dataBase := n * n * shmRingHeaderBytes
	for i := range w.rings {
		w.rings[i] = &shmRing{
			hdr:   mem[hdrBase+i*shmRingHeaderBytes : hdrBase+(i+1)*shmRingHeaderBytes],
			data:  mem[dataBase+i*cfg.ringSize : dataBase+(i+1)*cfg.ringSize],
			mask:  uint64(cfg.ringSize - 1),
			space: make(chan struct{}, 1),
			dst:   i % n,
		}
	}
	for d := range w.wakes {
		w.wakes[d] = make(chan struct{}, 1)
	}
	return w, nil
}

// shmMap obtains the shared region: a MAP_SHARED mapping of an unlinked
// temp file (the honest two-process data path), falling back to plain
// heap memory where mmap is unavailable.
//
// The backing file MUST live on tmpfs. A MAP_SHARED mapping of a
// disk-backed file is subject to dirty-page writeback: the kernel
// periodically cleans and write-protects the pages, so every store
// after a writeback cycle takes a fault to re-mark the page dirty. On
// a 64-rank storm that turned ring writes into a fault storm roughly
// 500x slower than the tmpfs path. /dev/shm is tmpfs on any Linux
// worth running on; only if it is missing do we fall back to TMPDIR
// (accepting the writeback cost) and finally to heap memory.
func shmMap(size int) (mem []byte, mapped bool, err error) {
	f, err := os.CreateTemp("/dev/shm", "ddr-shm-*")
	if err != nil {
		if f, err = os.CreateTemp("", "ddr-shm-*"); err != nil {
			return make([]byte, size), false, nil
		}
	}
	defer f.Close()
	os.Remove(f.Name())
	if err := f.Truncate(int64(size)); err != nil {
		return make([]byte, size), false, nil
	}
	mem, err = syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return make([]byte, size), false, nil
	}
	return mem, true, nil
}

// ring returns the (src -> dst) ring.
func (w *shmWorld) ring(src, dst int) *shmRing { return w.rings[src*w.n+dst] }

// nudge wakes dst's consumer (non-blocking; a pending nudge coalesces).
func (w *shmWorld) nudge(dst int) {
	select {
	case w.wakes[dst] <- struct{}{}:
	default:
	}
}

// addOccupancy tracks committed-but-unconsumed bytes, mirrored into
// dst's ring-occupancy gauge when telemetry is attached.
func (w *shmWorld) addOccupancy(dst int, n int64) {
	w.occupancy.Add(n)
	w.occGauge[dst].Load().Add(n)
}

// consume is rank dst's consumer goroutine: it drains every inbound ring
// into the rank's mailbox, blocking on the wakeup channel when idle.
func (w *shmWorld) consume(dst int) {
	defer w.wg.Done()
	streams := make(map[uint64]*shmStream)
	box := w.boxes[dst]
	for {
		progress := false
		for src := 0; src < w.n; src++ {
			if w.drainRing(src, dst, box, streams) {
				progress = true
			}
		}
		if progress {
			continue
		}
		select {
		case <-w.wakes[dst]:
		case <-w.stop:
			// Final drain: deliver everything already committed so a
			// clean shutdown loses nothing, then release reassembly state.
			for src := 0; src < w.n; src++ {
				w.drainRing(src, dst, box, streams)
			}
			for _, st := range streams {
				st.drop(box)
			}
			return
		}
	}
}

// drainRing consumes every committed record in the (src -> dst) ring,
// reporting whether it made progress.
func (w *shmWorld) drainRing(src, dst int, box *mailbox, streams map[uint64]*shmStream) bool {
	r := w.ring(src, dst)
	head := r.loadHead()
	tail := r.loadTail()
	if head == tail {
		return false
	}
	for head != tail {
		head = w.consumeRecord(src, dst, box, streams, head, tail)
	}
	// Release a producer blocked on this ring.
	select {
	case r.space <- struct{}{}:
	default:
	}
	return true
}

// consumeRecord consumes the record (or wrap marker) at head of the
// (src -> dst) ring, committed up to tail, and returns the new head.
func (w *shmWorld) consumeRecord(src, dst int, box *mailbox, streams map[uint64]*shmStream, head, tail uint64) uint64 {
	r := w.ring(src, dst)
	at := head & r.mask
	rec, wrap, err := decodeShmRecord(r.data[at:])
	if wrap {
		// Wrap bytes are dead space, not records; the occupancy gauge
		// tracks record bytes only, so nothing to account here.
		head += uint64(len(r.data)) - at
		atomic.StoreUint64(r.headPtr(), head)
		return head
	}
	if err != nil {
		// A corrupt ring is unrecoverable; drop everything committed
		// and warn. Only reachable through memory corruption.
		obs.Warnf("mpi: shm ring %d->%d: %v (dropping ring contents)", src, dst, err)
		atomic.StoreUint64(r.headPtr(), tail)
		w.addOccupancy(dst, -int64(tail-head))
		return tail
	}
	payload := r.data[at+uint64(rec.hdr) : at+uint64(rec.hdr)+uint64(rec.n)]
	w.deliver(dst, box, streams, rec, payload)
	step := uint64(shmPad(rec.hdr + rec.n))
	head += step
	atomic.StoreUint64(r.headPtr(), head)
	w.addOccupancy(dst, -int64(step))
	w.bytesIn.Add(int64(rec.n))
	w.inCtr[dst].Load().Add(int64(rec.n))
	return head
}

// deliver lands one decoded record in the mailbox. A whole message
// unpacks straight into the posted parts of the oldest open post it
// matches when they pack to exactly its length — the one copy on the
// receiving side — and copies into an arena buffer otherwise. Sequenced (fault-injected) messages
// always take the arena path, so the mailbox can drop duplicates, and
// chunk records reassemble into a pinned envelope.
func (w *shmWorld) deliver(dst int, box *mailbox, streams map[uint64]*shmStream, rec shmRecord, payload []byte) {
	e := envelope{ctx: rec.ctx, src: rec.src, tag: rec.tag, seq: rec.seq, tc: rec.tc}
	if rec.typ == shmRecMsg {
		if rec.n > 0 && rec.seq == 0 {
			if p := box.claim(e, rec.n); p != nil {
				unpackParts(payload, p.parts)
				box.commit(p, rec.tc)
				return
			}
		}
		if rec.n > 0 {
			e.data = GetBuffer(rec.n)
			copy(e.data, payload)
		}
		box.put(e)
		return
	}
	w.chunksIn.Add(1)
	key := uint64(rec.src)<<32 | uint64(rec.stream)
	st, ok := streams[key]
	if !ok {
		e.data = GetBuffer(int(rec.total))
		e.pend = &chunkPending{}
		st = &shmStream{env: e}
		streams[key] = st
		// Pin the message's matching position now; it becomes matchable
		// when the last chunk lands.
		st.discard = !box.put(st.env)
	}
	if st.fill+rec.n > len(st.env.data) {
		obs.Warnf("mpi: shm chunk stream %d->%d overflows (%d+%d of %d); dropping stream",
			rec.src, dst, st.fill, rec.n, len(st.env.data))
		st.drop(box)
		delete(streams, key)
		return
	}
	copy(st.env.data[st.fill:], payload)
	st.fill += rec.n
	if st.fill == len(st.env.data) {
		if st.discard {
			PutBuffer(st.env.data)
		} else {
			box.complete(st.env.pend)
		}
		delete(streams, key)
	}
}

// close stops the consumers and unmaps the region. A producer may still
// be inside a ring — a fault injector's worker delivers after its rank
// returned — so close waits out every ring's producer lock first; reserve
// sees the world closed before it touches ring memory again. Mailboxes
// belong to the launcher, which closes them after every rank returned.
func (w *shmWorld) close() error {
	w.closeMu.Lock()
	defer w.closeMu.Unlock()
	if w.closed.Swap(true) {
		return nil
	}
	close(w.stop)
	w.wg.Wait()
	for _, r := range w.rings { // wait out any producer still inside
		r.mu.Lock()
		r.mu.Unlock()
	}
	if w.mmap {
		syscall.Munmap(w.mem) //nolint:errcheck // unmap on teardown is best effort
	}
	w.mem = nil
	return nil
}

// shmTransport is one rank's view of the shared-memory world. src is
// the rank's world rank.
type shmTransport struct {
	w          *shmWorld
	src        int
	nextStream atomic.Uint32
}

// Stats snapshots the world-wide shm transport counters (shared by all
// ranks of the world).
func (t *shmTransport) Stats() ShmStats { return t.w.stats() }

func (t *shmTransport) send(dst int, e envelope) error {
	if dst < 0 || dst >= t.w.n {
		return fmt.Errorf("mpi: shm world rank %d out of range", dst)
	}
	if t.w.isClosed() {
		return ErrClosed
	}
	err := t.write(dst, e)
	if e.data != nil {
		// The transport owns eager-copy payloads; the ring copy is the
		// delivery, so the staging buffer recycles immediately.
		PutBuffer(e.data)
	}
	return err
}

// sendTyped implements the typedSender capability with no staging copy
// and no arena allocation. A plain payload (nil parts) goes straight from
// the caller's buffer into the ring at every size, one record or a chunk
// stream; typed parts that fit one record pack straight into it, while
// larger ones stream as chunk records from the arena wire the caller packs
// instead. The ring write is synchronous, so by the time it returns the
// caller's buffers are reusable, which is exactly Send's contract.
func (t *shmTransport) sendTyped(dst int, e envelope, parts []Part, n int) (bool, error) {
	if parts != nil && n > t.w.cfg.chunkThreshold {
		return false, nil
	}
	if dst < 0 || dst >= t.w.n {
		return true, fmt.Errorf("mpi: shm world rank %d out of range", dst)
	}
	if t.w.isClosed() {
		return true, ErrClosed
	}
	if parts == nil {
		return true, t.write(dst, e)
	}
	return true, t.writeMsg(dst, &e, parts, n)
}

// write moves one message into the (src -> dst) ring, chunking payloads
// above the threshold so they interleave with ring capacity. The ring's
// producer lock is held across the whole message, serializing concurrent
// senders and keeping chunk streams contiguous in publication order.
func (t *shmTransport) write(dst int, e envelope) error {
	w := t.w
	cfg := &w.cfg
	if len(e.data) <= cfg.chunkThreshold {
		return t.writeMsg(dst, &e, []Part{{Buf: e.data}}, len(e.data))
	}
	r := w.ring(t.src, dst)
	stream := t.nextStream.Add(1)
	total := uint64(len(e.data))
	r.mu.Lock()
	defer r.mu.Unlock()
	for off := 0; off < len(e.data); {
		n := len(e.data) - off
		if n > cfg.chunkSize {
			n = cfg.chunkSize
		}
		if err := r.writeRecord(w, &e, shmRecChunk, stream, total, []Part{{Buf: e.data[off : off+n]}}, n); err != nil {
			return err
		}
		w.records.Add(1)
		w.chunksOut.Add(1)
		w.bytesOut.Add(int64(n))
		w.outCtr[t.src].Load().Add(int64(n))
		w.addOccupancy(dst, int64(shmPad(shmWordSize+shmRecHeader+shmChunkExt+shmTraceExtIf(&e)+n)))
		off += n
		w.nudge(dst)
	}
	return nil
}

// writeMsg writes one whole-message record whose payload is the n packed
// bytes of parts.
func (t *shmTransport) writeMsg(dst int, e *envelope, parts []Part, n int) error {
	w := t.w
	r := w.ring(t.src, dst)
	r.mu.Lock()
	err := r.writeRecord(w, e, shmRecMsg, 0, 0, parts, n)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	w.records.Add(1)
	w.bytesOut.Add(int64(n))
	w.outCtr[t.src].Load().Add(int64(n))
	w.addOccupancy(dst, int64(shmPad(shmWordSize+shmRecHeader+shmTraceExtIf(e)+n)))
	w.nudge(dst)
	return nil
}

// shmTraceExtIf accounts the trace extension in occupancy bookkeeping.
func shmTraceExtIf(e *envelope) int {
	if e.tc.Exchange != 0 {
		return shmTraceExt
	}
	return 0
}

func (t *shmTransport) close() error { return t.w.close() }

// attachObs mirrors this rank's shm activity into the telemetry's
// instruments (nil detaches).
func (t *shmTransport) attachObs(tel *Telemetry) {
	if tel == nil {
		t.w.occGauge[t.src].Store(nil)
		t.w.touchGauge[t.src].Store(nil)
		t.w.inCtr[t.src].Store(nil)
		t.w.outCtr[t.src].Store(nil)
		return
	}
	t.w.occGauge[t.src].Store(tel.shmOccupancy)
	// Touched bytes only rise, so a gauge attached late catches up here
	// and every later rise sets it to the running total.
	t.w.touchGauge[t.src].Store(tel.shmTouched)
	tel.shmTouched.SetMax(t.w.touched[t.src].Load())
	t.w.inCtr[t.src].Store(tel.shmBytesIn)
	t.w.outCtr[t.src].Store(tel.shmBytesOut)
}

// RunShm executes body on n ranks over the shared-memory ring transport.
func RunShm(n int, body func(c *Comm) error) error {
	return Launch(n, body, WithTransport(TransportShm))
}

// launchShm runs body on n in-process ranks whose traffic crosses the
// mmap-backed ring transport; see Launch for the contract.
func launchShm(n int, cfg shmConfig, inj FaultInjector, body func(c *Comm) error) error {
	if n <= 0 {
		return fmt.Errorf("mpi: world size %d must be positive", n)
	}
	boxes := make([]*mailbox, n)
	for i := range boxes {
		boxes[i] = newMailbox()
	}
	w, err := newShmWorld(n, cfg, boxes)
	if err != nil {
		return err
	}
	trs := make([]transport, n)
	for rank := 0; rank < n; rank++ {
		var tr transport = &shmTransport{w: w, src: rank}
		if inj != nil {
			tr = newFaultTransport(tr, inj, rank, func(dst, src int, err error) {
				if dst >= 0 && dst < len(boxes) {
					boxes[dst].markLost(src, err)
				}
			})
		}
		trs[rank] = tr
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := &Comm{
				rank:     rank,
				group:    identityGroup(n),
				tr:       trs[rank],
				box:      boxes[rank],
				counters: newTraffic(n),
			}
			c.world = c
			if err := body(c); err != nil {
				errs[rank] = fmt.Errorf("rank %d: %w", rank, err)
				for _, b := range boxes {
					b.close(fmt.Errorf("mpi: rank %d failed: %w", rank, err))
				}
			}
		}(rank)
	}
	wg.Wait()
	for _, tr := range trs {
		tr.close() //nolint:errcheck // world close is idempotent
	}
	for _, b := range boxes {
		b.close(nil)
	}
	return errors.Join(errs...)
}
