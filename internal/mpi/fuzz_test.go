package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// TestCollectivesRandomized drives the collectives with randomized sizes
// and roots over the in-process transport: the property checked is that
// every rank observes exactly the bytes the semantics promise.
func TestCollectivesRandomized(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 1 + rng.Intn(9)
		root := rng.Intn(n)
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = rng.Intn(5000)
		}
		payload := func(rank int) []byte {
			out := make([]byte, sizes[rank])
			for i := range out {
				out[i] = byte(rank*31 + i)
			}
			return out
		}
		err := Launch(n, func(c *Comm) error {
			mine := payload(c.Rank())

			// Bcast: everyone must end with root's payload.
			got, err := c.Bcast(root, mine)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, payload(root)) {
				return fmt.Errorf("bcast mismatch on rank %d", c.Rank())
			}

			// Allgather: rank order preserved, bytes intact.
			all, err := c.Allgather(mine)
			if err != nil {
				return err
			}
			for r, p := range all {
				if !bytes.Equal(p, payload(r)) {
					return fmt.Errorf("allgather rank %d entry %d corrupt", c.Rank(), r)
				}
			}

			return nil
		})
		if err != nil {
			t.Fatalf("trial %d (n=%d root=%d): %v", trial, n, root, err)
		}
	}
}

// TestManyConcurrentWorlds runs several independent worlds at once to
// shake out any accidental global state in the runtime.
func TestManyConcurrentWorlds(t *testing.T) {
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			errs <- Launch(3, func(c *Comm) error {
				sum, err := c.AllreduceInt64([]int64{int64(w)}, OpSum)
				if err != nil {
					return err
				}
				if sum[0] != int64(3*w) {
					return fmt.Errorf("world %d sum %d", w, sum[0])
				}
				return c.Barrier()
			})
		}(w)
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestInterleavedTagsStress posts many sends with shuffled tags and
// receives them in a different order.
func TestInterleavedTagsStress(t *testing.T) {
	const msgs = 200
	err := Launch(2, func(c *Comm) error {
		if c.Rank() == 0 {
			order := rand.New(rand.NewSource(7)).Perm(msgs)
			for _, tag := range order {
				if err := c.Send(1, tag, []byte{byte(tag), byte(tag >> 8)}); err != nil {
					return err
				}
			}
			return nil
		}
		// Receive in strictly increasing tag order regardless of arrival.
		for tag := 0; tag < msgs; tag++ {
			data, _, _, err := c.Recv(0, tag)
			if err != nil {
				return err
			}
			if int(data[0])|int(data[1])<<8 != tag {
				return fmt.Errorf("tag %d payload mismatch", tag)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fuzzSink accepts whatever the decoder delivers and recycles completed
// payloads, tracking pinned (chunk-pending) envelopes like a mailbox
// would so reassembly buffers are not recycled while still being written.
type fuzzSink struct {
	pinned []envelope
}

func (s *fuzzSink) put(e envelope) bool {
	if e.pend != nil {
		s.pinned = append(s.pinned, e)
		return true
	}
	PutBuffer(e.data)
	return true
}

func (s *fuzzSink) complete(p *chunkPending) {
	for i, e := range s.pinned {
		if e.pend == p {
			PutBuffer(e.data)
			s.pinned = append(s.pinned[:i], s.pinned[i+1:]...)
			return
		}
	}
}

// removePending unpins a reassembly the decoder abandoned at connection
// teardown; buffer handling matches complete.
func (s *fuzzSink) removePending(p *chunkPending) { s.complete(p) }

// fuzzSrc is the world rank that dialed every fuzzed connection: the
// corpus frames all carry it, as a real connection's frames do.
const fuzzSrc = 2

// FuzzTCPFrameDecoder feeds arbitrary bytes to the wire-protocol-v2
// decoder. The property is totality: any input either decodes into frames
// or fails with an error — never a panic, hang, or out-of-bounds write.
// Frame and stream limits are kept tiny so the fuzzer cannot make the
// decoder allocate gigabyte reassembly buffers.
func FuzzTCPFrameDecoder(f *testing.F) {
	// Seeds: a valid whole frame, a valid two-chunk stream, and truncated
	// and corrupted variants of each.
	msg := make([]byte, tcpFrameHeader+4)
	msg[0] = frameMsg
	msg[8] = fuzzSrc
	msg[16] = 4 // len = 4, LE
	f.Add(msg)
	f.Add(msg[:tcpFrameHeader-3])
	chunk := make([]byte, tcpFrameHeader+tcpChunkExt+2)
	chunk[0] = frameChunk
	chunk[8] = fuzzSrc
	chunk[16] = 2                                       // frame len
	chunk[tcpFrameHeader] = 1                           // stream id
	chunk[tcpFrameHeader+8] = 4                         // total
	f.Add(append(append([]byte{}, chunk...), chunk...)) // complete stream
	f.Add(chunk)                                        // dangling stream
	bad := append([]byte{}, msg...)
	bad[0] = 0xff
	f.Add(bad)
	// Writer-faithful corpus: whole messages with real ctx/src/tag values,
	// a multi-chunk stream, and two streams interleaved with a message —
	// plus truncated and type-corrupted variants of each.
	for _, seed := range realV2Corpus() {
		f.Add(seed)
		f.Add(seed[:len(seed)-3])
		mut := append([]byte{}, seed...)
		mut[0] ^= 0x7
		f.Add(mut)
	}
	for _, seed := range realV3Corpus() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sink := &fuzzSink{}
		dec := newFrameDecoder(sink, fuzzSrc, 1<<16, 1<<20, 8)
		r := bytes.NewReader(data)
		for {
			if _, err := dec.readFrame(r); err != nil {
				break
			}
			if r.Len() == 0 {
				break
			}
		}
		dec.cleanup()
	})
}

// buildWireFrame encodes one frame exactly as the sending writer does,
// giving the fuzz corpus realistic on-the-wire bytes instead of
// hand-poked headers. stream/total are used for chunk types, seq for the
// v3 sequenced types.
func buildWireFrame(typ byte, ctx uint32, src, tag int, payload []byte, stream uint32, total uint64, seq uint64) []byte {
	ext := 0
	chunked := typ == frameChunk || typ == frameChunkSeq
	if chunked {
		ext += tcpChunkExt
	}
	if typ == frameMsgSeq || typ == frameChunkSeq {
		ext += tcpSeqExt
	}
	h := make([]byte, tcpFrameHeader+ext, tcpFrameHeader+ext+len(payload))
	h[0] = typ
	binary.LittleEndian.PutUint32(h[4:], ctx)
	binary.LittleEndian.PutUint32(h[8:], uint32(src))
	binary.LittleEndian.PutUint32(h[12:], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(h[16:], uint32(len(payload)))
	if chunked {
		binary.LittleEndian.PutUint32(h[tcpFrameHeader:], stream)
		binary.LittleEndian.PutUint64(h[tcpFrameHeader+8:], total)
		if typ == frameChunkSeq {
			binary.LittleEndian.PutUint64(h[tcpFrameHeader+tcpChunkExt:], seq)
		}
	} else if typ == frameMsgSeq {
		binary.LittleEndian.PutUint64(h[tcpFrameHeader:], seq)
	}
	return append(h, payload...)
}

// realV2Corpus returns writer-faithful v2 byte streams: a whole message,
// a chunked message, and two chunk streams interleaved with a small
// message between their chunks — the shapes a real connection carries.
func realV2Corpus() [][]byte {
	msg := buildWireFrame(frameMsg, 1, fuzzSrc, 7, []byte("hello-wire"), 0, 0, 0)
	neg := buildWireFrame(frameMsg, 1, fuzzSrc, -5, []byte{9, 9}, 0, 0, 0)

	var chunked []byte
	payload := []byte("abcdefghijkl")
	for off := 0; off < len(payload); off += 4 {
		chunked = append(chunked, buildWireFrame(frameChunk, 1, fuzzSrc, 7,
			payload[off:off+4], 3, uint64(len(payload)), 0)...)
	}

	var interleaved []byte
	interleaved = append(interleaved, buildWireFrame(frameChunk, 1, fuzzSrc, 7, []byte("AAAA"), 10, 8, 0)...)
	interleaved = append(interleaved, buildWireFrame(frameChunk, 1, fuzzSrc, 8, []byte("BBBB"), 11, 8, 0)...)
	interleaved = append(interleaved, msg...)
	interleaved = append(interleaved, buildWireFrame(frameChunk, 1, fuzzSrc, 7, []byte("aaaa"), 10, 8, 0)...)
	interleaved = append(interleaved, buildWireFrame(frameChunk, 1, fuzzSrc, 8, []byte("bbbb"), 11, 8, 0)...)

	return [][]byte{msg, neg, chunked, interleaved}
}

// realV3Corpus returns sequenced (v3) streams: sequenced messages, an
// in-stream duplicate, and a sequenced chunk stream followed by its full
// replay — the shape a fault injector's duplicate produces.
func realV3Corpus() [][]byte {
	var msgs []byte
	msgs = append(msgs, buildWireFrame(frameMsgSeq, 1, fuzzSrc, 7, []byte("one"), 0, 0, 1)...)
	msgs = append(msgs, buildWireFrame(frameMsgSeq, 1, fuzzSrc, 7, []byte("two"), 0, 0, 2)...)
	msgs = append(msgs, buildWireFrame(frameMsgSeq, 1, fuzzSrc, 7, []byte("one"), 0, 0, 1)...) // replay

	var stream []byte
	for rep := 0; rep < 2; rep++ { // original + full replay under a new stream id
		id := uint32(20 + rep)
		stream = append(stream, buildWireFrame(frameChunkSeq, 1, fuzzSrc, 9, []byte("CCCC"), id, 8, 5)...)
		stream = append(stream, buildWireFrame(frameChunkSeq, 1, fuzzSrc, 9, []byte("cccc"), id, 8, 5)...)
	}

	return [][]byte{msgs, stream, append(append([]byte{}, msgs...), stream...)}
}

// FuzzTCPSeqFrameDecoder drives the v3 (sequenced, fault-injected)
// decoder path with two decode passes of the same bytes into one real
// mailbox — every sequenced message replayed, as an injector's duplicates
// are. The properties: totality (no panic, hang, or out-of-bounds), and
// idempotency — when the first pass consumed the whole input cleanly, a
// full replay must not deliver any sequenced message again. The mailbox
// remembers the last len(seqWindow.ring) sequence numbers per sender, the
// duplication distance it covers, so longer inputs only check totality.
func FuzzTCPSeqFrameDecoder(f *testing.F) {
	for _, seed := range realV2Corpus() {
		f.Add(seed)
	}
	for _, seed := range realV3Corpus() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		box := &mailbox{}
		// delivered counts the matchable messages the mailbox holds.
		delivered := func() int {
			n := 0
			for _, e := range box.queue {
				if e.pend == nil || e.pend.ready {
					n++
				}
			}
			return n
		}
		decode := func() (clean bool, added int) {
			before := delivered()
			dec := newFrameDecoder(box, fuzzSrc, 1<<16, 1<<20, 8)
			r := bytes.NewReader(data)
			for {
				_, err := dec.readFrame(r)
				if err != nil || r.Len() == 0 {
					dec.cleanup()
					return err == nil, delivered() - before
				}
			}
		}
		clean, first := decode()
		_, second := decode()
		for _, e := range box.queue {
			PutBuffer(e.data)
		}
		seqs := countSeqMsgs(data)
		if clean && seqs > 0 && seqs <= len(seqWindow{}.ring) && second >= first && second > countUnsequenced(data) {
			t.Fatalf("replay delivered %d messages (first pass %d, unsequenced %d): sequence dedupe leaked",
				second, first, countUnsequenced(data))
		}
	})
}

// countSeqMsgs counts well-formed frameMsgSeq frames in a byte stream by
// re-walking it with a throwaway decoder (no dedupe attached).
func countSeqMsgs(data []byte) int {
	return countFrames(data, func(typ byte) bool { return typ == frameMsgSeq })
}

// countUnsequenced counts frames the dedupe layer does not cover: plain
// v2 messages and completed v2 chunk streams redeliver on replay by design.
func countUnsequenced(data []byte) int {
	return countFrames(data, func(typ byte) bool { return typ == frameMsg || typ == frameChunk })
}

func countFrames(data []byte, want func(byte) bool) int {
	sink := &fuzzSink{}
	dec := newFrameDecoder(sink, fuzzSrc, 1<<16, 1<<20, 8)
	r := bytes.NewReader(data)
	n := 0
	for {
		typ, err := dec.readFrame(r)
		if err != nil {
			break
		}
		if want(typ) {
			n++
		}
		if r.Len() == 0 {
			break
		}
	}
	dec.cleanup()
	return n
}
