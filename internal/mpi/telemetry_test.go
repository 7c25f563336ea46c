package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

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
	err := Launch(n, func(c *Comm) error {
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
	}, WithTransport(TransportTCP), WithTelemetry(reg, nil))
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

// A world's telemetry must reach every communicator of a rank, split from
// the world or not, still attributed to the world rank.
func TestTelemetrySharedAcrossSplit(t *testing.T) {
	reg := obs.NewRegistry()
	err := Launch(4, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		// Split's own Allgather is counted too, so measure the delta of
		// this rank's counter across the sub-communicator send.
		own := reg.Counter("mpi_wire_bytes_sent_total", "", obs.RankLabel(c.Rank()))
		base := own.Value()
		if sub.Rank() == 1 {
			_, _, _, err := sub.Recv(0, 5)
			return err
		}
		if err := sub.Send(1, 5, make([]byte, 10)); err != nil {
			return err
		}
		if got := own.Value() - base; got != 10 {
			return fmt.Errorf("rank %d counted %d bytes for a 10-byte send on a split communicator", c.Rank(), got)
		}
		return nil
	}, WithTelemetry(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryEveryInstrumentMoves runs a short two-rank exchange on each
// transport and checks that every instrument the transport feeds has
// moved — so no count site is lost silently — that each rank's
// mpi_wire_bytes_sent_total and mpi_wire_bytes_recv_total equal its
// Traffic() totals, and that every gauge of every rank is back at exactly
// zero once the world has returned: each move is counted on both sides.
// Rank 0 sends tags 1 and 2, a burst of tag 3 and one message past tcp's
// chunk threshold; rank 1 takes tag 2 first, so tag 1 waits in its
// mailbox, and answers with an ack. A gauge that is back at zero by the end counts as
// moved when it was caught above zero where it must be: the pending
// messages while tag 1 waits, the shm ring occupancy while the records
// wait for their receives, and the tcp send queue while rank 0's writer
// stalls on its first burst batch. The stall also makes the burst meet a
// full queue (backpressure) and the next batch coalesce.
func TestTelemetryEveryInstrumentMoves(t *testing.T) {
	noop := funcInjector(func(src, dst, tag int, seq uint64, attempt int) Fault { return Fault{} })
	cfg := tcpChunked(1<<10, 1<<10)
	cfg.queueLen, cfg.batch = 2, 2
	common := []string{"mpi_send_latency_seconds", "mpi_recv_latency_seconds",
		"mpi_wire_bytes_sent_total", "mpi_wire_bytes_recv_total", "mpi_pending_messages"}
	worlds := []struct {
		name  string
		opts  []LaunchOption
		feeds []string // the instruments of the transport itself
	}{
		{"inproc", []LaunchOption{WithFaultInjector(nil)}, nil},
		{"tcp", []LaunchOption{withTCP(cfg), WithFaultInjector(nil)}, []string{
			"mpi_tcp_wire_bytes_out_total", "mpi_tcp_wire_bytes_in_total",
			"mpi_tcp_frames_coalesced_total", "mpi_tcp_chunks_out_total", "mpi_tcp_chunks_in_total",
			"mpi_tcp_backpressure_total", "mpi_tcp_sendq_saturation_total", "mpi_tcp_send_queue_depth"}},
		{"shm", []LaunchOption{WithTransport(TransportShm), WithFaultInjector(nil)}, []string{
			"mpi_shm_bytes_out_total", "mpi_shm_bytes_in_total",
			"mpi_shm_ring_occupancy_bytes", "mpi_shm_ring_touched_bytes"}},
		{"inproc+injector", []LaunchOption{WithFaultInjector(noop)}, nil},
	}
	const burst = 16
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			var mu sync.Mutex
			moved := map[string]bool{}
			saw := func(name string, g *obs.Gauge) {
				if g.Value() > 0 {
					mu.Lock()
					moved[name] = true
					mu.Unlock()
				}
			}
			// Only rank 0's writer carries tag 3, whole frames under the
			// chunk threshold. While it stalls on its first burst batch the
			// sender fills the two-frame queue, and its next send finds it
			// full.
			var stalled sync.Once
			testHookBeforeWrite = func(batch []envelope) {
				if len(batch) == 0 || batch[0].tag != 3 {
					return
				}
				stalled.Do(func() {
					depth := reg.Gauge("mpi_tcp_send_queue_depth", "", obs.RankLabel(0))
					blocked := reg.Counter("mpi_tcp_backpressure_total", "", obs.RankLabel(0))
					before := blocked.Value()
					deadline := time.Now().Add(10 * time.Second)
					for depth.Value() < 2 && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
					}
					saw("mpi_tcp_send_queue_depth", depth)
					for blocked.Value() == before && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
					}
				})
			}
			defer func() { testHookBeforeWrite = nil }()

			sent := make(chan struct{})
			var end [2]TrafficStats
			err := Launch(2, func(c *Comm) error {
				r := c.Rank()
				defer func() { end[r] = c.Traffic() }()
				if r == 0 {
					for _, m := range []struct{ tag, n int }{{1, 64}, {2, 64}} {
						if err := c.Send(1, m.tag, make([]byte, m.n)); err != nil {
							return err
						}
					}
					for i := 0; i < burst; i++ {
						if err := c.Send(1, 3, make([]byte, 512)); err != nil {
							return err
						}
					}
					if err := c.Send(1, 4, make([]byte, 8<<10)); err != nil {
						return err
					}
					close(sent)
					_, _, _, err := c.Recv(1, 5)
					return err
				}
				<-sent
				if w.name == "shm" {
					time.Sleep(5 * time.Millisecond) // the consumer leaves every record waiting
					saw("mpi_shm_ring_occupancy_bytes", reg.Gauge("mpi_shm_ring_occupancy_bytes", "", obs.RankLabel(1)))
				}
				if _, _, _, err := c.Recv(0, 2); err != nil {
					return err
				}
				saw("mpi_pending_messages", reg.Gauge("mpi_pending_messages", "", obs.RankLabel(1)))
				for _, tag := range []int{1, 3} {
					for i := 0; i < map[int]int{1: 1, 3: burst}[tag]; i++ {
						if _, _, _, err := c.Recv(0, tag); err != nil {
							return err
						}
					}
				}
				if _, _, _, err := c.Recv(0, 4); err != nil {
					return err
				}
				return c.Send(0, 5, make([]byte, 16))
			}, append(w.opts, WithTelemetry(reg, nil))...)
			if err != nil {
				t.Fatal(err)
			}

			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(buf.String(), "\n") {
				metric, value, ok := strings.Cut(line, " ")
				if !ok || strings.HasPrefix(line, "#") || value == "0" {
					continue
				}
				name, _, _ := strings.Cut(metric, "{")
				if h, ok := strings.CutSuffix(name, "_count"); ok {
					name = h
				} else if strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") {
					continue
				}
				moved[name] = true
			}
			for _, name := range append(common, w.feeds...) {
				if !moved[name] {
					t.Errorf("%s never moved", name)
				}
			}
			for r := 0; r < 2; r++ {
				sent := reg.Counter("mpi_wire_bytes_sent_total", "", obs.RankLabel(r)).Value()
				recv := reg.Counter("mpi_wire_bytes_recv_total", "", obs.RankLabel(r)).Value()
				if want := end[r].BytesSent; sent != want {
					t.Errorf("rank %d: mpi_wire_bytes_sent_total %d, Traffic().BytesSent %d", r, sent, want)
				}
				if want := end[r].BytesRecv; recv != want {
					t.Errorf("rank %d: mpi_wire_bytes_recv_total %d, Traffic().BytesRecv %d", r, recv, want)
				}
				for _, gauge := range []string{"mpi_pending_messages", "mpi_shm_ring_occupancy_bytes", "mpi_tcp_send_queue_depth"} {
					if v := reg.Gauge(gauge, "", obs.RankLabel(r)).Value(); v != 0 {
						t.Errorf("rank %d: %s ends at %d, want 0", r, gauge, v)
					}
				}
			}
		})
	}
}

// A world launched without telemetry, or with WithTelemetry(nil, nil),
// must keep its hot paths on the nil fast path.
func TestTelemetryNilAttach(t *testing.T) {
	for name, opts := range map[string][]LaunchOption{
		"no option":               nil,
		"WithTelemetry(nil, nil)": {WithTelemetry(nil, nil)},
	} {
		err := Launch(2, func(c *Comm) error {
			if tel := c.counters.telemetry(); tel != nil {
				return fmt.Errorf("rank %d has telemetry %p", c.Rank(), tel)
			}
			if c.Rank() == 0 {
				return c.Send(1, 1, []byte("x"))
			}
			_, _, _, err := c.Recv(0, 1)
			return err
		}, opts...)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
