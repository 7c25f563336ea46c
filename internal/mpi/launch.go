package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ddr/internal/obs"
)

// Launch is the single entry point for running an n-rank world,
// configured by functional options. The default is the in-process
// transport with the process-wide fault injector (see
// SetDefaultFaultInjector).
//
//	mpi.Launch(8, body)                                          // in-process
//	mpi.Launch(8, body, mpi.WithFaultInjector(inj))              // explicit injector
//	mpi.Launch(8, body, mpi.WithTransport(mpi.TransportTCP))     // loopback TCP
//	mpi.Launch(8, body, mpi.WithTransport(mpi.TransportShm))     // shm rings
//	mpi.Launch(8, body, mpi.WithTelemetry(reg, nil))             // metrics
//
// body runs once per rank (one goroutine each); Launch blocks until all
// ranks return and yields the joined errors. When a rank fails, the
// remaining ranks' pending operations are unblocked with ErrClosed so
// the world can drain. A message still queued lent (Comm.Lend) once every
// rank returned is an error too. A transport only builds the world's
// communicators; the fault wrapping, the ranks and the teardown are the
// same for all.
func Launch(n int, body func(c *Comm) error, opts ...LaunchOption) error {
	if n <= 0 {
		return fmt.Errorf("mpi: world size %d must be positive", n)
	}
	cfg := launchConfig{tcp: defaultTCPConfig, shm: defaultShmConfig}
	for _, o := range opts {
		o(&cfg)
	}
	// Bound before any transport goroutine or rank body starts, a rank's
	// telemetry counts both sides of every move.
	tels := make([]*telemetry, n)
	for rank := range tels {
		tels[rank] = newTelemetry(cfg.reg, cfg.flight, rank)
	}
	var comms []*Comm
	var err error
	switch cfg.transport {
	case TransportTCP:
		comms, err = tcpComms(cfg.tcp, tels)
	case TransportShm:
		comms, err = shmComms(cfg.shm, tels)
	default:
		comms = inprocComms(tels)
	}
	if err != nil {
		return err
	}
	inj := cfg.inj
	if !cfg.injSet {
		inj = defaultInjector()
	}
	if inj != nil {
		// A severed link tells the destination's mailbox directly, so its
		// blocked receives fail with ErrPeerLost instead of hanging.
		for _, c := range comms {
			c.tr = newFaultTransport(c.tr, inj, c.counters, func(dst, src int, err error) {
				if dst >= 0 && dst < n {
					comms[dst].box.markLost(src, err)
				}
			})
		}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank, c := range comms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := body(c); err != nil {
				errs[rank] = fmt.Errorf("rank %d: %w", rank, err)
				// Unblock everyone so surviving ranks do not hang forever.
				for _, o := range comms {
					o.box.close(fmt.Errorf("mpi: rank %d failed: %w", rank, err))
				}
			}
		}()
	}
	wg.Wait()
	// Fault transports flush their queued traffic into the raw transport
	// and close it; closing a world's transport is idempotent.
	for _, c := range comms {
		c.tr.close() //nolint:errcheck // teardown; the ranks' errors are what Launch reports
	}
	for _, c := range comms {
		c.box.close(nil)
		errs = append(errs, c.box.unsettled())
	}
	return errors.Join(errs...)
}

// worldComm is world rank rank of an n-rank world, sending over tr and
// receiving into box, whose counters become the rank's.
func worldComm(rank, n int, tr transport, box *mailbox) *Comm {
	t := box.counters
	t.rank = rank
	t.peerSent, t.peerRecv = make([]atomic.Int64, n), make([]atomic.Int64, n)
	c := &Comm{
		rank:     rank,
		group:    identityGroup(n),
		tr:       tr,
		box:      box,
		counters: t,
	}
	c.world = c
	return c
}

// Transport selects the wire a Launch'd world communicates over.
type Transport int

const (
	// TransportInProc is the default: one mailbox per rank, deliveries
	// are in-process channel sends.
	TransportInProc Transport = iota
	// TransportTCP carries all inter-rank traffic over loopback TCP
	// sockets, exercising a real network stack.
	TransportTCP
	// TransportShm carries traffic over mmap-backed shared-memory ring
	// buffers — the data path for ranks co-located on one node.
	TransportShm
)

// String names the transport the way flags and metrics label it.
func (t Transport) String() string {
	switch t {
	case TransportInProc:
		return "inproc"
	case TransportTCP:
		return "tcp"
	case TransportShm:
		return "shm"
	default:
		return fmt.Sprintf("transport(%d)", int(t))
	}
}

// launchConfig is the resolved option set of one Launch call. The
// transports' geometry is not an option: every world runs the defaults,
// and only tests, inside this package, shrink them.
type launchConfig struct {
	transport Transport
	tcp       tcpConfig
	shm       shmConfig
	inj       FaultInjector
	injSet    bool
	reg       *obs.Registry
	flight    *obs.FlightRecorder
}

// LaunchOption configures one Launch call.
type LaunchOption func(*launchConfig)

// WithTransport selects the transport the world runs on.
func WithTransport(t Transport) LaunchOption {
	return func(cfg *launchConfig) { cfg.transport = t }
}

// WithFaultInjector wraps every rank's transport with inj: deliveries
// consult it for delays, drops (retried with bounded backoff),
// duplicates (deduplicated at the receiving mailbox), reorderings, and
// link severance. Passing it — even with a nil injector, which runs
// fault-free — overrides the process-wide default injector; omitting it
// keeps the SetDefaultFaultInjector behavior.
func WithFaultInjector(inj FaultInjector) LaunchOption {
	return func(cfg *launchConfig) {
		cfg.inj = inj
		cfg.injSet = true
	}
}

// WithTelemetry reports every rank of the world to reg, each rank's
// instruments under its rank label, and records the transport's flight
// events into flight. Either may be nil; omitting the option, or passing
// two nils, leaves the hot paths on their nil fast path. The bundle binds
// when the world is built and does not change while it runs: every
// communicator of a rank, split from the world or not, its mailbox and
// its transport report to it, attributed to the world rank.
func WithTelemetry(reg *obs.Registry, flight *obs.FlightRecorder) LaunchOption {
	return func(cfg *launchConfig) {
		cfg.reg, cfg.flight = reg, flight
	}
}
