package mpi

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"ddr/internal/grid"
	"ddr/internal/obs"
)

// TestTCPSmallFrameStorm floods every peer pair with small tagged
// messages so the per-peer writers must coalesce: with 4 ranks each
// sending 64 frames to 3 peers through default queues, vectored batches
// are statistically guaranteed. Contents and per-tag identity are checked
// end to end.
func TestTCPSmallFrameStorm(t *testing.T) {
	const (
		n       = 4
		perPeer = 64
		size    = 96
	)
	err := Launch(n, func(c *Comm) error {
		rank := c.Rank()
		for peer := 0; peer < n; peer++ {
			if peer == rank {
				continue
			}
			for m := 0; m < perPeer; m++ {
				msg := make([]byte, size)
				for i := range msg {
					msg[i] = byte(rank ^ m ^ i)
				}
				if err := c.Send(peer, m, msg); err != nil {
					return err
				}
			}
		}
		for peer := 0; peer < n; peer++ {
			if peer == rank {
				continue
			}
			for m := 0; m < perPeer; m++ {
				data, from, tag, err := c.Recv(peer, m)
				if err != nil {
					return err
				}
				if from != peer || tag != m || len(data) != size {
					return fmt.Errorf("got %d bytes from %d tag %d, want %d from %d tag %d",
						len(data), from, tag, size, peer, m)
				}
				for i, b := range data {
					if b != byte(peer^m^i) {
						return fmt.Errorf("byte %d from rank %d tag %d corrupted", i, peer, m)
					}
				}
				PutBuffer(data)
			}
		}
		return nil
	}, WithTransport(TransportTCP))
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPChunkedPayload pushes payloads across the chunk threshold (with
// a small threshold so the test stays fast) and checks byte-exact
// reassembly plus the chunk counters on both sides.
func TestTCPChunkedPayload(t *testing.T) {
	sizes := []int{64<<10 + 1, 200 << 10, 1 << 20}
	err := Launch(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i, size := range sizes {
				msg := make([]byte, size)
				for j := range msg {
					msg[j] = byte(j*7 + i)
				}
				if err := c.Send(1, i, msg); err != nil {
					return err
				}
			}
			_, _, _, err := c.Recv(1, 99)
			return err
		}
		for i, size := range sizes {
			data, _, _, err := c.Recv(0, i)
			if err != nil {
				return err
			}
			if len(data) != size {
				return fmt.Errorf("message %d: got %d bytes, want %d", i, len(data), size)
			}
			for j, b := range data {
				if b != byte(j*7+i) {
					return fmt.Errorf("message %d corrupted at byte %d", i, j)
				}
			}
			PutBuffer(data)
		}
		return c.Send(0, 99, []byte{1})
	}, withTCP(tcpChunked(64<<10, 16<<10)))
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPChunkOrdering verifies MPI non-overtaking across the chunk
// boundary: a large (chunked) message followed by a small one on the SAME
// tag must be received in send order, even though the small frame
// physically arrives while the big one is still streaming.
func TestTCPChunkOrdering(t *testing.T) {
	big := 512 << 10
	err := Launch(2, func(c *Comm) error {
		const tag = 5
		if c.Rank() == 0 {
			msg := make([]byte, big)
			for i := range msg {
				msg[i] = byte(i)
			}
			if err := c.Send(1, tag, msg); err != nil {
				return err
			}
			// Same tag, tiny: its single frame interleaves with the big
			// message's chunk stream on the wire.
			return c.Send(1, tag, []byte("after"))
		}
		first, _, _, err := c.Recv(0, tag)
		if err != nil {
			return err
		}
		if len(first) != big {
			return fmt.Errorf("small message overtook chunked one: first Recv got %d bytes", len(first))
		}
		for i, b := range first {
			if b != byte(i) {
				return fmt.Errorf("chunked payload corrupted at byte %d", i)
			}
		}
		PutBuffer(first)
		second, _, _, err := c.Recv(0, tag)
		if err != nil {
			return err
		}
		if string(second) != "after" {
			return fmt.Errorf("second Recv got %q", second)
		}
		return nil
	}, withTCP(tcpChunked(32<<10, 4<<10)))
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPInterleavedChunkStreams has every rank stream a large payload to
// every other rank while peppering the same connections with small
// control messages — multiple chunk streams reassembling concurrently per
// read loop, interleaved with whole frames.
func TestTCPInterleavedChunkStreams(t *testing.T) {
	const (
		n     = 4
		big   = 256 << 10
		small = 32
	)
	err := Launch(n, func(c *Comm) error {
		rank := c.Rank()
		var wg sync.WaitGroup
		sendErr := make([]error, n)
		for peer := 0; peer < n; peer++ {
			if peer == rank {
				continue
			}
			wg.Add(1)
			go func(peer int) {
				defer wg.Done()
				msg := make([]byte, big)
				for i := range msg {
					msg[i] = byte(i * (rank + 1))
				}
				if err := c.Send(peer, 0, msg); err != nil {
					sendErr[peer] = err
					return
				}
				for k := 0; k < 8; k++ {
					if err := c.Send(peer, 1, bytes.Repeat([]byte{byte(k)}, small)); err != nil {
						sendErr[peer] = err
						return
					}
				}
			}(peer)
		}
		for peer := 0; peer < n; peer++ {
			if peer == rank {
				continue
			}
			data, _, _, err := c.Recv(peer, 0)
			if err != nil {
				return err
			}
			if len(data) != big {
				return fmt.Errorf("from %d: got %d bytes, want %d", peer, len(data), big)
			}
			for i, b := range data {
				if b != byte(i*(peer+1)) {
					return fmt.Errorf("stream from %d corrupted at %d", peer, i)
				}
			}
			PutBuffer(data)
			for k := 0; k < 8; k++ {
				got, _, _, err := c.Recv(peer, 1)
				if err != nil {
					return err
				}
				if len(got) != small || got[0] != byte(k) {
					return fmt.Errorf("control %d from %d corrupted", k, peer)
				}
				PutBuffer(got)
			}
		}
		wg.Wait()
		for _, err := range sendErr {
			if err != nil {
				return err
			}
		}
		return nil
	}, withTCP(tcpChunked(16<<10, 8<<10)))
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPCloseMidStream closes an endpoint while a chunked send is still
// streaming. The contract is orderly shutdown: Close flushes what it can,
// force-closes the rest within its timeout, and nothing hangs or panics.
func TestTCPCloseMidStream(t *testing.T) {
	cfg := tcpChunked(4<<10, 1<<10)
	a, err := newTCPEndpoint("127.0.0.1:0", cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newTCPEndpoint("127.0.0.1:0", cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{a.Addr(), b.Addr()}
	ca, err := a.Join(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Join(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	// Start a receiver that will be cut off mid-stream.
	recvDone := make(chan error, 1)
	go func() {
		for {
			data, _, _, err := cb.Recv(0, AnySource)
			if err != nil {
				recvDone <- nil // closed mailbox is the expected exit
				return
			}
			PutBuffer(data)
		}
	}()
	for i := 0; i < 16; i++ {
		if err := ca.Send(1, 3, make([]byte, 64<<10)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatalf("close a: %v", err)
	}
	// Sends after Close fail cleanly rather than wedging.
	if err := ca.Send(1, 3, []byte("x")); err == nil {
		t.Fatal("send after Close succeeded")
	}
	if err := b.Close(); err != nil {
		t.Fatalf("close b: %v", err)
	}
	<-recvDone
}

// TestTCPPeerLostBeforeFirstFrame kills a sender after it dialed but
// before its first frame reached the wire: the writer's first batch is
// held, and the sender's socket closes under it as a dying process's
// would. The receiver knows who dialed from the connection's preamble, so
// its receive from that rank fails with ErrPeerLost at once instead of
// waiting out its deadline.
func TestTCPPeerLostBeforeFirstFrame(t *testing.T) {
	const timeout = 10 * time.Second
	recvEp, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recvEp.Close()
	sendEp, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{recvEp.Addr(), sendEp.Addr()}
	recv, err := recvEp.Join(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	send, err := sendEp.Join(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	testHookBeforeWrite = func([]envelope) {
		once.Do(func() { close(held) })
		<-release
	}
	defer func() {
		close(release)
		sendEp.Close()
		testHookBeforeWrite = nil
	}()
	if err := send.Send(0, 7, []byte("never written")); err != nil {
		t.Fatal(err)
	}
	<-held
	sendEp.mu.Lock()
	sendEp.peers[0].conn.Close()
	sendEp.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	data, _, _, err := recv.Irecv(1, 7).WaitCtx(ctx)
	if err == nil {
		PutBuffer(data)
		t.Fatal("received a message the sender never wrote")
	}
	if took := time.Since(start); !errors.Is(err, ErrPeerLost) || took > timeout/2 {
		t.Fatalf("receive from a sender lost before its first frame: %v after %v, want ErrPeerLost well inside %v", err, took, timeout)
	}
}

// TestTCPInboundConnTracking exercises the Close path for accepted
// connections: an endpoint that only ever received (never dialed) must
// still tear down its read-loop connections on Close.
func TestTCPInboundConnTracking(t *testing.T) {
	a, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{a.Addr(), b.Addr()}
	ca, _ := a.Join(0, addrs)
	cb, _ := b.Join(1, addrs)
	if err := ca.Send(1, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if data, _, _, err := cb.Recv(0, 0); err != nil || string(data) != "hello" {
		t.Fatalf("recv: %q %v", data, err)
	}
	// b has one inbound connection (from a) and zero dialed peers.
	b.mu.Lock()
	inbound, peers := len(b.inbound), len(b.peers)
	b.mu.Unlock()
	if inbound != 1 || peers != 0 {
		t.Fatalf("endpoint b tracks %d inbound / %d peers, want 1 / 0", inbound, peers)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	inbound = len(b.inbound)
	b.mu.Unlock()
	if inbound != 0 {
		t.Fatalf("%d inbound connections still tracked after Close", inbound)
	}
	a.Close()
}

// TestTCPBackpressureWarning drives a peer's send queue to saturation and
// checks that the event is counted and warned about exactly once.
func TestTCPBackpressureWarning(t *testing.T) {
	var logbuf bytes.Buffer
	prev := obs.SetWarnOutput(&logbuf)
	defer obs.SetWarnOutput(prev)

	cfg := defaultTCPConfig
	cfg.queueLen, cfg.batch = 2, 2
	reg := obs.NewRegistry()
	err := Launch(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 512; i++ {
				if err := c.Send(1, 0, make([]byte, 4096)); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 512; i++ {
			data, _, _, err := c.Recv(0, 0)
			if err != nil {
				return err
			}
			PutBuffer(data)
		}
		return nil
	}, withTCP(cfg), WithTelemetry(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	if reg.Counter("mpi_tcp_backpressure_total", "", obs.RankLabel(0)).Value() == 0 {
		t.Fatal("512 sends through a 2-deep queue never hit backpressure")
	}
	out := logbuf.String()
	if !strings.Contains(out, "saturated") {
		t.Fatalf("no saturation warning emitted; log: %q", out)
	}
	if strings.Count(out, "saturated") != 1 {
		t.Fatalf("saturation warned more than once per peer:\n%s", out)
	}
}

// TestTCPStatsCoalescing asserts the writer actually vectors multiple
// frames per write under bursty load.
func TestTCPStatsCoalescing(t *testing.T) {
	reg := obs.NewRegistry()
	var ep *TCPEndpoint
	err := Launch(2, func(c *Comm) error {
		if c.Rank() == 0 {
			ep = c.tr.(*tcpTransport).ep
			for i := 0; i < 256; i++ {
				if err := c.Send(1, i, []byte("burst")); err != nil {
					return err
				}
			}
			// Wait for the receiver's ack so every queued frame has been
			// written before the counters are read; the writer counts a
			// batch before writing it, so the ack implies the count.
			_, _, _, err := c.Recv(1, 0)
			return err
		}
		for i := 0; i < 256; i++ {
			if _, _, _, err := c.Recv(0, i); err != nil {
				return err
			}
		}
		return c.Send(0, 0, []byte{1})
	}, WithTransport(TransportTCP), WithFaultInjector(nil), WithTelemetry(reg, nil)) // the bare endpoint's writers
	if err != nil {
		t.Fatal(err)
	}
	// Launch closed the endpoint, so every writer has exited.
	var frames, batches int64
	for _, p := range ep.peers {
		frames += p.frames
		batches += p.batches
	}
	if frames != 256 {
		t.Fatalf("%d frames written, want 256", frames)
	}
	if batches >= frames {
		t.Fatalf("no coalescing: %d batches for %d frames", batches, frames)
	}
	if reg.Counter("mpi_tcp_frames_coalesced_total", "", obs.RankLabel(0)).Value() == 0 {
		t.Fatal("mpi_tcp_frames_coalesced_total = 0 under a 256-frame burst")
	}
	if d := reg.Gauge("mpi_tcp_send_queue_depth", "", obs.RankLabel(0)).Value(); d != 0 {
		t.Fatalf("mpi_tcp_send_queue_depth = %d after drain, want 0", d)
	}
}

// recycleSink implements chunkSink for decoder-level tests, recycling
// payloads immediately so the arena round-trips.
type recycleSink struct {
	msgs      int
	completed int
	last      envelope
}

func (s *recycleSink) put(e envelope) bool {
	s.msgs++
	s.last = e
	if e.pend == nil {
		PutBuffer(e.data)
	}
	return true
}

func (s *recycleSink) complete(p *chunkPending) {
	s.completed++
	PutBuffer(s.last.data)
}

func (s *recycleSink) removePending(p *chunkPending) {
	PutBuffer(s.last.data)
}

// buildMsgFrame assembles a frameMsg wire image for decoder tests.
func buildMsgFrame(ctx uint32, src int, tag int, payload []byte) []byte {
	f := make([]byte, tcpFrameHeader+len(payload))
	f[0] = frameMsg
	binary.LittleEndian.PutUint32(f[4:], ctx)
	binary.LittleEndian.PutUint32(f[8:], uint32(src))
	binary.LittleEndian.PutUint32(f[12:], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(f[16:], uint32(len(payload)))
	copy(f[tcpFrameHeader:], payload)
	return f
}

// buildChunkFrame assembles a frameChunk wire image for decoder tests.
func buildChunkFrame(ctx uint32, src, tag int, stream uint32, total uint64, payload []byte) []byte {
	f := make([]byte, tcpFrameHeader+tcpChunkExt+len(payload))
	f[0] = frameChunk
	binary.LittleEndian.PutUint32(f[4:], ctx)
	binary.LittleEndian.PutUint32(f[8:], uint32(src))
	binary.LittleEndian.PutUint32(f[12:], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(f[16:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(f[tcpFrameHeader:], stream)
	binary.LittleEndian.PutUint64(f[tcpFrameHeader+8:], total)
	copy(f[tcpFrameHeader+tcpChunkExt:], payload)
	return f
}

// TestTCPReceiveSteadyStateAlloc is the transport twin of core's
// TestZeroAllocSteadyState: once the arena is warm, decoding a whole
// frame draws its payload buffer from the pool and performs zero heap
// allocations per frame.
func TestTCPReceiveSteadyStateAlloc(t *testing.T) {
	const size = 8192
	frame := buildMsgFrame(0, 1, 7, make([]byte, size))
	sink := &recycleSink{}
	dec := newFrameDecoder(sink, 1, maxSingleFrame, maxChunkTotal, maxInboundChunks)
	r := bytes.NewReader(nil)
	// Warm the arena class.
	for i := 0; i < 3; i++ {
		r.Reset(frame)
		if _, err := dec.readFrame(r); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		if _, err := dec.readFrame(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state frame decode allocates %.1f objects/frame, want 0", allocs)
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestTCPSendSteadyStateAlloc is its send-side twin: a ping-pong of lent
// payloads — a typed strided message one way, a plain 96 KiB Send back —
// allocates nothing per round trip once warm, across both ranks, their
// writers and their read loops. The lent send's completion signal is
// pooled; one channel per send would read two allocations here.
func TestTCPSendSteadyStateAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; make verify runs this test without it")
	}
	err := Launch(2, func(c *Comm) error {
		peer := 1 - c.Rank()
		if c.Rank() == 1 {
			// Echo until the stop tag, so rank 0 controls the round count.
			echo := make([]byte, 96<<10)
			for {
				data, _, tag, err := c.Recv(peer, AnyTag)
				if err != nil {
					return err
				}
				PutBuffer(data)
				if tag == 9 {
					return nil
				}
				if err := c.Send(peer, 0, echo); err != nil {
					return err
				}
			}
		}
		parts := []Part{subarrayPart(4, grid.Box2(0, 0, 1024, 64), grid.Box2(1, 0, 1000, 40), 1)}
		pingpong := func() error {
			if err := c.SendTyped(nil, peer, 0, parts, nil); err != nil {
				return err
			}
			data, _, _, err := c.Recv(peer, 0)
			if err != nil {
				return err
			}
			PutBuffer(data)
			return nil
		}
		for i := 0; i < 100; i++ { // reach steady state on both sides
			if err := pingpong(); err != nil {
				return err
			}
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		allocs := testing.AllocsPerRun(100, func() {
			if err := pingpong(); err != nil {
				t.Error(err)
			}
		})
		if err := c.Send(peer, 9, nil); err != nil {
			return err
		}
		if allocs != 0 {
			t.Errorf("steady-state lent ping-pong allocates %.1f objects per round trip, want 0", allocs)
		}
		return nil
	}, WithTransport(TransportTCP), WithFaultInjector(nil))
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPDecoderProtocolErrors feeds the decoder malformed frames and
// checks each is rejected with errTCPProto rather than a hang or panic.
func TestTCPDecoderProtocolErrors(t *testing.T) {
	cases := []struct {
		name  string
		frame []byte
	}{
		{"unknown type", func() []byte {
			f := buildMsgFrame(0, 0, 0, nil)
			f[0] = 99
			return f
		}()},
		{"zero total chunk", buildChunkFrame(0, 0, 0, 1, 0, nil)},
		{"oversize total chunk", buildChunkFrame(0, 0, 0, 1, 1<<40, nil)},
		{"chunk overflow", func() []byte {
			a := buildChunkFrame(0, 0, 0, 1, 8, make([]byte, 6))
			b := buildChunkFrame(0, 0, 0, 1, 8, make([]byte, 6))
			return append(a, b...)
		}()},
		{"foreign source", buildMsgFrame(0, 3, 0, nil)},
		{"stream identity change", func() []byte {
			a := buildChunkFrame(0, 0, 0, 1, 64, make([]byte, 6))
			b := buildChunkFrame(0, 0, 9, 1, 64, make([]byte, 6))
			return append(a, b...)
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dec := newFrameDecoder(&recycleSink{}, 0, maxSingleFrame, maxChunkTotal, 4)
			r := bytes.NewReader(tc.frame)
			var err error
			for err == nil && r.Len() > 0 {
				_, err = dec.readFrame(r)
			}
			if err == nil || !strings.Contains(err.Error(), "protocol error") {
				t.Fatalf("got %v, want wrapped errTCPProto", err)
			}
		})
	}
}
