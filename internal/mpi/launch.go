package mpi

import "fmt"

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
// the world can drain.
func Launch(n int, body func(c *Comm) error, opts ...LaunchOption) error {
	cfg := launchConfig{tcp: defaultTCPConfig, shm: defaultShmConfig}
	for _, o := range opts {
		o(&cfg)
	}
	inj := cfg.inj
	if !cfg.injSet {
		inj = defaultInjector()
	}
	switch cfg.transport {
	case TransportTCP:
		return launchTCP(n, cfg.tcp, inj, body)
	case TransportShm:
		return launchShm(n, cfg.shm, inj, body)
	default:
		return launchInProc(n, inj, body)
	}
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
