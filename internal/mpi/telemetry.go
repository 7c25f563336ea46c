package mpi

import "ddr/internal/obs"

// Telemetry bundles the observability sinks for one rank: latency
// histograms and wire-byte counters in an obs.Registry and a
// pending-message gauge on the rank's mailbox. The runtime records no
// spans of its own; the exchange's spans are core's. Construct with NewTelemetry and attach with
// Comm.AttachTelemetry; a nil *Telemetry is valid everywhere and costs a
// single pointer check on the hot paths.
type Telemetry struct {
	rank int

	sendLatency *obs.Histogram
	recvLatency *obs.Histogram
	wireSent    *obs.Counter
	wireRecv    *obs.Counter
	pendingMsgs *obs.Gauge

	// TCP frame-level instruments, fed by the rank's endpoint when the
	// communicator rides the TCP transport (payload + frame headers).
	tcpOut          *obs.Counter
	tcpIn           *obs.Counter
	tcpCoalesced    *obs.Counter
	tcpChunksOut    *obs.Counter
	tcpChunksIn     *obs.Counter
	tcpBackpressure *obs.Counter
	tcpSendqSat     *obs.Counter
	tcpQueueDepth   *obs.Gauge

	// Shared-memory transport instruments, fed by the ring producers and
	// the consumer that write to and read for this rank.
	shmBytesOut  *obs.Counter
	shmBytesIn   *obs.Counter
	shmOccupancy *obs.Gauge
	shmTouched   *obs.Gauge

	// Fault-tolerance instruments: chaos-engine verdicts counted by the
	// rank's fault transport, and peers its mailbox declared lost.
	faultDrops   *obs.Counter
	faultRetries *obs.Counter
	faultSevers  *obs.Counter
	peersLost    *obs.Counter

	// flight is the per-rank flight recorder; nil unless attached via
	// WithFlightRecorder. Hot paths gate on the nil check.
	flight *obs.FlightRecorder
}

// NewTelemetry derives a rank's instrument handles from the registry. A
// nil registry gives a nil bundle, and instrumentation stays on its free
// path.
func NewTelemetry(reg *obs.Registry, rank int) *Telemetry {
	if reg == nil {
		return nil
	}
	rl := obs.RankLabel(rank)
	return &Telemetry{
		rank: rank,
		sendLatency: reg.Histogram("mpi_send_latency_seconds",
			"Time spent delivering one message into the transport.", obs.LatencyBuckets, rl),
		recvLatency: reg.Histogram("mpi_recv_latency_seconds",
			"Time blocked in Recv until a matching message arrived.", obs.LatencyBuckets, rl),
		wireSent: reg.Counter("mpi_wire_bytes_sent_total",
			"Payload bytes this rank handed to its transport.", rl),
		wireRecv: reg.Counter("mpi_wire_bytes_recv_total",
			"Payload bytes this rank consumed from its transport.", rl),
		pendingMsgs: reg.Gauge("mpi_pending_messages",
			"Unmatched messages queued in this rank's mailbox.", rl),
		tcpOut: reg.Counter("mpi_tcp_wire_bytes_out_total",
			"Frame bytes (headers included) written to TCP peers.", rl),
		tcpIn: reg.Counter("mpi_tcp_wire_bytes_in_total",
			"Frame bytes (headers included) read from TCP peers.", rl),
		tcpCoalesced: reg.Counter("mpi_tcp_frames_coalesced_total",
			"Frames that shared a vectored write with at least one other frame.", rl),
		tcpChunksOut: reg.Counter("mpi_tcp_chunks_out_total",
			"Chunk sub-frames written for large-message streaming.", rl),
		tcpChunksIn: reg.Counter("mpi_tcp_chunks_in_total",
			"Chunk sub-frames read and reassembled.", rl),
		tcpBackpressure: reg.Counter("mpi_tcp_backpressure_total",
			"Sends that found their peer's queue full and had to block.", rl),
		tcpSendqSat: reg.Counter("mpi_tcp_sendq_saturation_total",
			"Send-queue saturation events per peer writer. The warning log is one-shot per peer; this counter records every recurrence so scrapes see sustained saturation.", rl),
		tcpQueueDepth: reg.Gauge("mpi_tcp_send_queue_depth",
			"Frames enqueued to peer writers and not yet written.", rl),
		shmBytesOut: reg.Counter("mpi_shm_bytes_out_total",
			"Payload bytes this rank published into shared-memory rings.", rl),
		shmBytesIn: reg.Counter("mpi_shm_bytes_in_total",
			"Payload bytes this rank consumed from shared-memory rings.", rl),
		shmOccupancy: reg.Gauge("mpi_shm_ring_occupancy_bytes",
			"Record bytes committed to this rank's inbound rings and not yet consumed.", rl),
		shmTouched: reg.Gauge("mpi_shm_ring_touched_bytes",
			"Sum over this rank's inbound rings of the highest data offset ever written: the ring memory they have touched.", rl),
		faultDrops: reg.Counter("mpi_fault_drops_total",
			"Delivery attempts discarded by the fault injector.", rl),
		faultRetries: reg.Counter("mpi_fault_retries_total",
			"Backoff retries after fault-injected drops.", rl),
		faultSevers: reg.Counter("mpi_fault_severed_links_total",
			"Peer links cut by the fault injector.", rl),
		peersLost: reg.Counter("mpi_peers_lost_total",
			"Peer ranks this rank's mailbox declared unreachable.", rl),
	}
}

// WithFlightRecorder attaches a flight recorder to the bundle, allocating
// the bundle if t is nil (flight recording works without a registry). Returns the bundle for chaining; a nil f is a no-op.
func (t *Telemetry) WithFlightRecorder(f *obs.FlightRecorder, rank int) *Telemetry {
	if f == nil {
		return t
	}
	if t == nil {
		t = &Telemetry{rank: rank}
	}
	t.flight = f
	return t
}

// AttachTelemetry hooks the telemetry into this communicator's rank: every
// communicator of the rank, split from it before or after the attach,
// its mailbox and its transport report to it (spans and counters stay
// attributed to the world rank, giving one unified timeline per
// process). Passing nil detaches.
func (c *Comm) AttachTelemetry(t *Telemetry) {
	c.counters.tel.Store(t)
	if t != nil {
		// Touched ring bytes only rise, so a gauge attached late catches
		// up here and every later rise sets it to the running total.
		t.shmTouched.SetMax(c.counters.shmTouched.Load())
	}
}
