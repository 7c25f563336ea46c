package mpi

import (
	"fmt"
	"sync"
	"testing"

	"ddr/internal/obs"
)

// A 4-rank all-pairs exchange over loopback TCP must leave behind exact
// wire byte counters at both the payload and the frame level, and empty
// mailboxes.
func TestTelemetryTCPAllPairs(t *testing.T) {
	const (
		n       = 4
		msgSize = 64
	)
	reg := obs.NewRegistry()

	// Every rank attaches before any rank sends: a message that lands in a
	// mailbox ahead of its owner's gauges is consumed after them, and the
	// depth and frame counters would read one short.
	var attached sync.WaitGroup
	attached.Add(n)
	err := Launch(n, func(c *Comm) error {
		c.AttachTelemetry(NewTelemetry(reg, c.Rank()))
		attached.Done()
		attached.Wait()
		for peer := 0; peer < n; peer++ {
			if peer != c.Rank() {
				if err := c.Send(peer, 7, make([]byte, msgSize)); err != nil {
					return err
				}
			}
		}
		for peer := 0; peer < n; peer++ {
			if peer == c.Rank() {
				continue
			}
			got, _, _, err := c.Recv(peer, 7)
			if err != nil {
				return err
			}
			if len(got) != msgSize {
				return fmt.Errorf("rank %d got %d bytes from %d, want %d", c.Rank(), len(got), peer, msgSize)
			}
		}
		return c.Barrier()
	}, WithTransport(TransportTCP))
	if err != nil {
		t.Fatal(err)
	}

	// Payload-level counters: each rank sent and received (n-1)*msgSize
	// bytes; the trailing barrier adds empty messages only.
	for r := 0; r < n; r++ {
		sent := reg.Counter("mpi_wire_bytes_sent_total", "", obs.RankLabel(r)).Value()
		recv := reg.Counter("mpi_wire_bytes_recv_total", "", obs.RankLabel(r)).Value()
		want := int64((n - 1) * msgSize)
		if sent != want || recv != want {
			t.Errorf("rank %d payload counters sent=%d recv=%d, want %d", r, sent, recv, want)
		}
		if pending := reg.Gauge("mpi_pending_messages", "", obs.RankLabel(r)).Value(); pending != 0 {
			t.Errorf("rank %d still has %d pending messages", r, pending)
		}
	}

	// Frame-level TCP counters include the 16-byte header per message.
	// The barrier's empty signals also cross the wire, so totals must be
	// at least the exchange's share and out must equal in globally.
	// A read loop counts a frame before delivering it and Launch waits for
	// every writer, so the totals are final once the world has returned.
	var tcpOut, tcpIn int64
	for r := 0; r < n; r++ {
		tcpOut += reg.Counter("mpi_tcp_wire_bytes_out_total", "", obs.RankLabel(r)).Value()
		tcpIn += reg.Counter("mpi_tcp_wire_bytes_in_total", "", obs.RankLabel(r)).Value()
	}
	if least := int64(n * (n - 1) * (msgSize + tcpFrameHeader)); tcpOut < least {
		t.Errorf("tcp frame bytes out = %d, want >= %d", tcpOut, least)
	}
	if tcpOut != tcpIn {
		t.Errorf("tcp frame bytes out=%d in=%d (should balance: every frame is read in full)", tcpOut, tcpIn)
	}
}

// Telemetry attached on the world must follow Split-derived
// communicators, still attributed to the world rank.
func TestTelemetrySharedAcrossSplit(t *testing.T) {
	reg := obs.NewRegistry()
	err := Launch(4, func(c *Comm) error {
		c.AttachTelemetry(NewTelemetry(reg, c.Rank()))
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub.tel != c.tel {
			return fmt.Errorf("telemetry not propagated through Split")
		}
		// Split's own Allgather is counted too, so measure the delta of
		// this rank's counter across the sub-communicator send.
		own := reg.Counter("mpi_wire_bytes_sent_total", "", obs.RankLabel(c.Rank()))
		base := own.Value()
		if sub.Rank() == 0 {
			if err := sub.Send(1, 5, make([]byte, 10)); err != nil {
				return err
			}
			if got := own.Value() - base; got != 10 {
				return fmt.Errorf("rank %d counted %d bytes for a 10-byte sub-comm send", c.Rank(), got)
			}
			return nil
		}
		_, _, _, err = sub.Recv(0, 5)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Attaching no telemetry must keep the hot paths on the nil fast path.
func TestTelemetryNilAttach(t *testing.T) {
	err := Launch(2, func(c *Comm) error {
		c.AttachTelemetry(nil)
		if c.Rank() == 0 {
			return c.Send(1, 1, []byte("x"))
		}
		_, _, _, err := c.Recv(0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if tel := NewTelemetry(nil, 0); tel != nil {
		t.Error("NewTelemetry(nil, 0) should be nil")
	}
}
