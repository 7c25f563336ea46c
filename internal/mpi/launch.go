package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
	var comms []*Comm
	var err error
	switch cfg.transport {
	case TransportTCP:
		comms, err = tcpComms(n, cfg.tcp)
	case TransportShm:
		comms, err = shmComms(n, cfg.shm)
	default:
		comms = inprocComms(n)
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
