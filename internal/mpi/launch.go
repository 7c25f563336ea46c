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
//	mpi.Launch(8, body, mpi.WithTCPOptions(opts))                // TCP, tuned
//	mpi.Launch(8, body, mpi.WithTransport(mpi.TransportShm))     // shm rings
//	mpi.Launch(8, body, mpi.WithShmOptions(opts))                // shm, tuned
//
// body runs once per rank (one goroutine each); Launch blocks until all
// ranks return and yields the joined errors. When a rank fails, the
// remaining ranks' pending operations are unblocked with ErrClosed so
// the world can drain.
//
// Option values are validated up front: malformed TCPOptions or
// ShmOptions (negative sizes, non-power-of-2 rings, ...) fail here with
// an error wrapping ErrBadOption instead of misbehaving deep inside a
// transport goroutine.
func Launch(n int, body func(c *Comm) error, opts ...LaunchOption) error {
	cfg := launchConfig{tcpOpts: DefaultTCPOptions()}
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(n); err != nil {
		return err
	}
	inj := cfg.inj
	if !cfg.injSet {
		inj = defaultInjector()
	}
	switch cfg.transport {
	case TransportTCP:
		return launchTCP(n, cfg.tcpOpts, inj, body)
	case TransportShm:
		return launchShm(n, cfg.shmOpts, inj, body)
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

// launchConfig is the resolved option set of one Launch call.
type launchConfig struct {
	transport Transport
	tcpOpts   TCPOptions
	shmOpts   ShmOptions
	inj       FaultInjector
	injSet    bool
}

// validate rejects malformed option combinations before any transport
// state is built; every failure wraps ErrBadOption.
func (cfg *launchConfig) validate(n int) error {
	if err := cfg.tcpOpts.Validate(); err != nil {
		return err
	}
	return cfg.shmOpts.Validate()
}

// LaunchOption configures one Launch call.
type LaunchOption func(*launchConfig)

// WithTransport selects the transport the world runs on.
func WithTransport(t Transport) LaunchOption {
	return func(cfg *launchConfig) { cfg.transport = t }
}

// WithTCPOptions selects the TCP transport with explicit per-endpoint
// options (it implies WithTransport(TransportTCP)).
func WithTCPOptions(opts TCPOptions) LaunchOption {
	return func(cfg *launchConfig) {
		cfg.transport = TransportTCP
		cfg.tcpOpts = opts
	}
}

// WithShmOptions selects the shared-memory transport with explicit ring
// tuning (it implies WithTransport(TransportShm)).
func WithShmOptions(opts ShmOptions) LaunchOption {
	return func(cfg *launchConfig) {
		cfg.transport = TransportShm
		cfg.shmOpts = opts
	}
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
