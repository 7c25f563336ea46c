package mpi

import (
	"encoding/binary"
	"testing"
)

// shmSeedRecord builds a well-formed record header for the fuzz corpus.
func shmSeedRecord(typ, flags byte, n int, payloadPad int) []byte {
	need := shmWordSize + shmRecHeader
	if typ == shmRecChunk {
		need += shmChunkExt
	}
	if flags&shmFlagTrace != 0 {
		need += shmTraceExt
	}
	b := make([]byte, need+payloadPad)
	binary.LittleEndian.PutUint64(b, uint64(uint32(n))|uint64(typ)<<32|uint64(flags)<<40)
	h := b[shmWordSize:]
	binary.LittleEndian.PutUint32(h, 42)        // ctx
	binary.LittleEndian.PutUint32(h[4:], 3)     // src
	binary.LittleEndian.PutUint32(h[8:], 7)     // tag
	binary.LittleEndian.PutUint64(h[16:], 1234) // seq
	h = h[shmRecHeader:]
	if typ == shmRecChunk {
		binary.LittleEndian.PutUint32(h, 9)         // stream
		binary.LittleEndian.PutUint64(h[8:], 65536) // total
		h = h[shmChunkExt:]
	}
	if flags&shmFlagTrace != 0 {
		binary.LittleEndian.PutUint64(h, 0xdeadbeef) // exchange
		binary.LittleEndian.PutUint32(h[8:], 2)      // round
		binary.LittleEndian.PutUint32(h[12:], 5)     // span
	}
	return b
}

// FuzzShmRingHeader throws arbitrary bytes at the ring-record decoder.
// The decoder guards the consumer against a corrupted shared region, so
// it must never panic, never report a payload that overruns the input,
// and never accept a record type or flag set it does not know.
func FuzzShmRingHeader(f *testing.F) {
	// Seed corpus: every valid shape, the wrap marker, and truncations.
	f.Add(shmSeedRecord(shmRecMsg, 0, 64, 64))
	f.Add(shmSeedRecord(shmRecMsg, shmFlagTrace, 16, 16))
	f.Add(shmSeedRecord(shmRecChunk, 0, 256, 256))
	f.Add(shmSeedRecord(shmRecChunk, shmFlagTrace, 0, 0))
	wrap := make([]byte, shmWordSize)
	binary.LittleEndian.PutUint64(wrap, shmWrapBit)
	f.Add(wrap)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(shmSeedRecord(shmRecMsg, 0, 1<<30, 0))                          // payload overrun
	f.Add(shmSeedRecord(3, 0, 8, 8))                                      // unknown type
	f.Add(shmSeedRecord(shmRecMsg, 0x80, 8, 8))                           // unknown flag
	f.Add(shmSeedRecord(shmRecChunk, 0, 8, 8)[:shmWordSize+shmRecHeader]) // truncated ext

	f.Fuzz(func(t *testing.T, b []byte) {
		rec, wrap, err := decodeShmRecord(b)
		if err != nil {
			return // rejected input: nothing else to hold
		}
		if wrap {
			return // wrap markers carry no record
		}
		if rec.typ != shmRecMsg && rec.typ != shmRecChunk {
			t.Fatalf("accepted unknown record type %d", rec.typ)
		}
		if rec.flags&^shmFlagTrace != 0 {
			t.Fatalf("accepted unknown flags %#x", rec.flags)
		}
		if rec.n < 0 || rec.hdr < shmWordSize || rec.hdr+rec.n > len(b) {
			t.Fatalf("payload window [%d:%d) overruns %d-byte input", rec.hdr, rec.hdr+rec.n, len(b))
		}
		if rec.typ == shmRecChunk && (rec.total == 0 || rec.total > maxChunkTotal) {
			t.Fatalf("accepted chunk total %d out of range", rec.total)
		}
	})
}
