package mpi

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ddr/internal/obs"
)

// TestTCPSendqSaturationCounter drives a peer's send queue to saturation
// and checks that, while the log still warns exactly once, every
// recurrence is counted in the mpi_tcp_sendq_saturation_total registry
// series, as often as a send met backpressure.
func TestTCPSendqSaturationCounter(t *testing.T) {
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
	counted := reg.Counter("mpi_tcp_sendq_saturation_total", "", obs.RankLabel(0)).Value()
	blocked := reg.Counter("mpi_tcp_backpressure_total", "", obs.RankLabel(0)).Value()
	if counted == 0 {
		t.Fatal("512 sends through a 2-deep queue never saturated")
	}
	if counted != blocked {
		t.Fatalf("registry counted %d saturation events for %d sends that met backpressure", counted, blocked)
	}
	if n := strings.Count(logbuf.String(), "saturated"); n != 1 {
		t.Fatalf("saturation warned %d times, want exactly 1 (counter carries the recurrences):\n%s",
			n, logbuf.String())
	}
}

// TestTCPTraceContextRoundTrip stamps a trace context on one side of a
// TCP world and checks the receiving side's flight events carry the
// exchange ID and round — i.e. the context really crossed the wire.
func TestTCPTraceContextRoundTrip(t *testing.T) {
	const exch = uint64(0xabcdef0123456789)
	flight := obs.NewFlightRecorder(256)
	err := Launch(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SetTraceContext(TraceContext{Exchange: exch, Round: 3})
			defer c.ClearTraceContext()
			return c.Send(1, 7, []byte("traced payload"))
		}
		data, _, _, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		PutBuffer(data)
		return nil
	}, WithTransport(TransportTCP), WithTelemetry(nil, flight))
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := map[obs.FlightKind]bool{obs.FlightFrameIn: false, obs.FlightRecv: false}
	for _, ev := range flight.Snapshot() {
		if _, ok := wantKinds[ev.Kind]; ok && ev.Rank == 1 && ev.Exchange == exch {
			if ev.Round != 3 {
				t.Fatalf("%v event carries round %d, want 3", ev.Kind, ev.Round)
			}
			if ev.Tag != 7 {
				continue // control traffic
			}
			wantKinds[ev.Kind] = true
		}
	}
	for kind, seen := range wantKinds {
		if !seen {
			t.Errorf("receiver recorded no %v event with exchange %016x:\n%+v",
				kind, exch, flight.Snapshot())
		}
	}
	// The sender's side records the send with the same identity.
	found := false
	for _, ev := range flight.Snapshot() {
		if ev.Kind == obs.FlightSend && ev.Rank == 0 && ev.Exchange == exch && ev.Peer == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("sender recorded no FlightSend with exchange %016x", exch)
	}
}

// TestTCPTraceContextChunked streams a message large enough to chunk and
// checks the stream-open flight event carries the exchange context
// (chunk frames repeat the extension so mid-stream observation works).
func TestTCPTraceContextChunked(t *testing.T) {
	const exch = uint64(0x1122334455667788)
	flight := obs.NewFlightRecorder(256)
	err := Launch(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SetTraceContext(TraceContext{Exchange: exch, Round: 1})
			defer c.ClearTraceContext()
			return c.Send(1, 9, make([]byte, 1<<14))
		}
		data, _, _, err := c.Recv(0, 9)
		if err != nil {
			return err
		}
		PutBuffer(data)
		return nil
	}, withTCP(tcpChunked(1<<10, 1<<10)), WithTelemetry(nil, flight))
	if err != nil {
		t.Fatal(err)
	}
	var open, done bool
	for _, ev := range flight.Snapshot() {
		if ev.Rank != 1 {
			continue
		}
		switch ev.Kind {
		case obs.FlightChunkStart:
			if ev.Exchange == exch {
				open = true
			}
		case obs.FlightChunkDone:
			done = true
		}
	}
	if !open || !done {
		t.Fatalf("chunk stream events missing (open=%v done=%v):\n%+v",
			open, done, flight.Snapshot())
	}
}

// TestTCPUntracedWireIdentical proves the zero-cost claim on the wire:
// with no trace context the frames carry no extension, so total wire
// bytes match exactly; with a context each message frame grows by the
// 16-byte trace extension and nothing else.
func TestTCPUntracedWireIdentical(t *testing.T) {
	const msgs = 32
	const size = 1024
	run := func(traced bool) int64 {
		var wireOut int64
		reg := obs.NewRegistry()
		out := reg.Counter("mpi_tcp_wire_bytes_out_total", "", obs.RankLabel(0))
		err := Launch(2, func(c *Comm) error {
			if c.Rank() == 0 {
				if traced {
					c.SetTraceContext(TraceContext{Exchange: 0xbeef, Round: 0})
					defer c.ClearTraceContext()
				}
				for i := 0; i < msgs; i++ {
					if err := c.Send(1, 0, make([]byte, size)); err != nil {
						return err
					}
				}
				// Wait for the ack so every frame has been written before
				// the counter is read.
				ack, _, _, err := c.Recv(1, 1)
				if err != nil {
					return err
				}
				PutBuffer(ack)
				// The frames leave in one writev batch and the counter add
				// happens after the syscall returns, so the ack round-trip
				// can overtake the writer goroutine's counter update on a
				// loaded box. Poll until the counter is nonzero and stable.
				prev := int64(-1)
				for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
					wireOut = out.Value()
					if wireOut > 0 && wireOut == prev {
						break
					}
					prev = wireOut
					time.Sleep(time.Millisecond)
				}
				return nil
			}
			for i := 0; i < msgs; i++ {
				data, _, _, err := c.Recv(0, 0)
				if err != nil {
					return err
				}
				PutBuffer(data)
			}
			return c.Send(0, 1, []byte{1})
		}, WithTransport(TransportTCP), WithTelemetry(reg, nil))
		if err != nil {
			t.Fatal(err)
		}
		return wireOut
	}
	plain := run(false)
	traced := run(true)
	if plain == 0 {
		t.Fatal("no wire bytes measured")
	}
	if want := plain + msgs*tcpTraceExt; traced != want {
		t.Fatalf("traced run wrote %d wire bytes, want %d (plain %d + %d msgs x %d-byte trace ext)",
			traced, want, plain, msgs, tcpTraceExt)
	}
}
