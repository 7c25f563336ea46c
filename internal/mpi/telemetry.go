package mpi

import "ddr/internal/obs"

// telemetry bundles the observability sinks of one rank: latency
// histograms, wire-byte counters, the mailbox's and the transport's
// instruments in an obs.Registry, and an optional flight recorder. The
// runtime records no spans of its own; the exchange's spans are core's.
// Launch binds one per rank before any goroutine that counts starts, and
// it never changes. A nil *telemetry costs one pointer check per site.
type telemetry struct {
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

	// flight is the world's flight recorder, nil when none was given. Hot
	// paths gate on the nil check.
	flight *obs.FlightRecorder
}

// newTelemetry derives rank's instruments from reg, with flight; nil when
// both are. A nil registry gives nil instruments, which count nothing.
func newTelemetry(reg *obs.Registry, flight *obs.FlightRecorder, rank int) *telemetry {
	if reg == nil && flight == nil {
		return nil
	}
	rl := obs.RankLabel(rank)
	return &telemetry{
		flight: flight,
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
