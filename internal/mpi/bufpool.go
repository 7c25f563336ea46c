// Staging-buffer arena: a process-wide, size-classed sync.Pool of wire
// buffers shared by the exchange hot paths. Repeated redistributions on a
// fixed plan reach a steady state in which every pack/unpack staging
// buffer — and the transport's eager send copy — is recycled rather than
// allocated, taking the garbage collector off the per-exchange critical
// path.
//
// Ownership rules:
//
//   - A buffer obtained with GetBuffer is owned by the caller until it is
//     passed to PutBuffer or handed to the transport.
//   - Comm.Send / Comm.Isend / Comm.SendTyped either copy or pack their
//     arguments into an arena buffer or lend them to the transport and
//     block until it is done with them, so a caller's buffer may be
//     reused as soon as the call returns.
//   - The arena wire a send falls back to when the transport takes the
//     message no other way is the transport's — in process, the
//     receiver's — from the hand-off on; the sender neither touches nor
//     recycles it again. A metered SendTyped releases the charge as it
//     hands the wire off.
//   - Message payloads returned by Recv/Wait are owned by the receiver;
//     a receiver that is finished with a payload may PutBuffer it (the
//     exchange engine does), but must not if any alias is retained. A
//     payload that is simply dropped costs the next receive of its class
//     a zeroed allocation; transit.Coupling.Recv therefore returns each
//     step's payloads on its callers' behalf, at the next Recv.
package mpi

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Size classes are powers of two from 1<<minClassShift up to
// 1<<maxClassShift bytes; larger requests fall through to the allocator.
// The top classes exist for the TCP transport's chunked-streaming
// reassembly buffers: a steady stream of large redistribution payloads
// recycles its receive storage instead of allocating (and zeroing) tens
// of megabytes per message.
const (
	minClassShift = 8  // 256 B
	maxClassShift = 26 // 64 MiB
	numClasses    = maxClassShift - minClassShift + 1
)

// bufPools[i] holds buffers of exactly 1<<(minClassShift+i) bytes,
// stored as unsafe base pointers so Get and Put stay allocation-free
// (boxing a slice header into an interface would allocate on every Put).
var bufPools [numClasses]sync.Pool

// classFor returns the smallest class whose buffers hold n bytes, or -1
// when n exceeds the largest class.
func classFor(n int) int {
	if n <= 1<<minClassShift {
		return 0
	}
	c := bits.Len(uint(n-1)) - minClassShift
	if c >= numClasses {
		return -1
	}
	return c
}

// GetBuffer returns a buffer of length n from the arena, allocating only
// when the matching size class is empty. The contents are unspecified;
// callers overwrite the full length. The capacity is the class size, so a
// later PutBuffer finds its way back to the same class.
func GetBuffer(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	size := 1 << (minClassShift + c)
	if p, _ := bufPools[c].Get().(unsafe.Pointer); p != nil {
		return unsafe.Slice((*byte)(p), size)[:n]
	}
	return make([]byte, size)[:n]
}

// PutBuffer returns a buffer to the arena. Only buffers whose capacity is
// exactly a class size are retained (GetBuffer always produces such
// buffers; arbitrary slices are silently dropped for the garbage
// collector). The caller must not touch the buffer afterwards.
func PutBuffer(b []byte) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 { // not a power of two
		return
	}
	shift := bits.Len(uint(c)) - 1
	if shift < minClassShift || shift > maxClassShift {
		return
	}
	b = b[:c]
	bufPools[shift-minClassShift].Put(unsafe.Pointer(unsafe.SliceData(b)))
}

// BufferClassSize reports the capacity a GetBuffer(n) call actually
// holds: the size of the smallest class covering n, or n itself beyond
// the largest class. Memory-budget accounting rounds through it so
// modeled footprints match what the arena really hands out.
func BufferClassSize(n int) int {
	if n <= 0 {
		return 0
	}
	c := classFor(n)
	if c < 0 {
		return n
	}
	return 1 << (minClassShift + c)
}

// StagingMeter is a live accounting hook over arena traffic: callers that
// acquire and release through it maintain a current-bytes counter and its
// high-water mark. The core package's memory-bounded exchange charges
// every staging buffer and held receive payload it owns against one, so
// tests can assert the measured peak against a configured budget — the
// budget is enforced by measurement, not advised. All methods are safe
// for concurrent use and nil-safe (a nil meter is a no-op).
type StagingMeter struct {
	cur  atomic.Int64
	peak atomic.Int64
}

// Acquire charges n bytes and advances the high-water mark.
func (m *StagingMeter) Acquire(n int) {
	if m == nil {
		return
	}
	c := m.cur.Add(int64(n))
	for {
		p := m.peak.Load()
		if c <= p || m.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

// Release returns n previously acquired bytes.
func (m *StagingMeter) Release(n int) {
	if m != nil {
		m.cur.Add(int64(-n))
	}
}

// Current reports the bytes currently charged.
func (m *StagingMeter) Current() int64 {
	if m == nil {
		return 0
	}
	return m.cur.Load()
}

// Peak reports the high-water mark since the last ResetPeak.
func (m *StagingMeter) Peak() int64 {
	if m == nil {
		return 0
	}
	return m.peak.Load()
}

// ResetPeak rebases the high-water mark to the current charge, so a
// caller can measure one bounded operation in isolation.
func (m *StagingMeter) ResetPeak() {
	if m != nil {
		m.peak.Store(m.cur.Load())
	}
}

// StagingLease is a reservation of arena bytes held open across a
// multi-buffer lifetime — the accounting primitive of pipelined
// exchanges, where the receive payloads of round r are leased when the
// round is issued and stay charged until the round retires k iterations
// later, with several leases open at once. Reserving up front (rather
// than charging each payload as it is delivered) makes the meter's
// high-water mark an upper bound on what the in-flight window can hold,
// so a measured peak under budget proves the depth clamp sound. The
// zero value is an empty lease; a lease against a nil meter is a no-op.
type StagingLease struct {
	m *StagingMeter
	n int64
}

// Lease opens a reservation of n bytes against the meter (callers pass
// class-rounded sizes so the reservation matches arena reality).
func (m *StagingMeter) Lease(n int) StagingLease {
	m.Acquire(n)
	return StagingLease{m: m, n: int64(n)}
}

// Grow extends the lease by n bytes.
func (l *StagingLease) Grow(n int) {
	if l.m == nil {
		return
	}
	l.m.Acquire(n)
	l.n += int64(n)
}

// Bytes reports the bytes currently reserved by the lease.
func (l *StagingLease) Bytes() int64 { return l.n }

// Close releases the whole reservation. Closing an empty or
// already-closed lease is a no-op, so retiring a round is idempotent.
func (l *StagingLease) Close() {
	if l.m != nil && l.n > 0 {
		l.m.Release(int(l.n))
	}
	l.n = 0
}

// GetBufferMetered is GetBuffer with the buffer's full capacity (the
// class size, not the requested length) charged against m.
func GetBufferMetered(n int, m *StagingMeter) []byte {
	b := GetBuffer(n)
	m.Acquire(cap(b))
	return b
}

// PutBufferMetered releases the charge taken by GetBufferMetered and
// recycles the buffer.
func PutBufferMetered(b []byte, m *StagingMeter) {
	m.Release(cap(b))
	PutBuffer(b)
}
