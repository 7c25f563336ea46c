package mpi

import "sync/atomic"

// TrafficStats is a snapshot of one rank's traffic through its transport,
// accumulated across the world communicator and everything split from it.
// Self-deliveries through the transport are counted; purely local
// copies (an exchange's local moves) are not.
type TrafficStats struct {
	MessagesSent int64
	BytesSent    int64
	MessagesRecv int64
	BytesRecv    int64

	// MessagesLanded / BytesLanded count the messages that reached the
	// regions of one of this rank's posted receives without an arena
	// payload — whether the sender's typed send copied them straight
	// there or this rank's post copied them in from a sender's lent parts
	// (bare inproc), or this rank's shm ring consumer unpacked them there
	// (shm) —
	// on the receiving side, where Posted.Wait reports them landed. They
	// say which path ran; the messages are included in the sender's Sent
	// and the receiver's Recv totals like any other.
	MessagesLanded int64
	BytesLanded    int64

	// PeerBytesSent[w] / PeerBytesRecv[w] attribute the byte totals to the
	// world rank w on the other end, so collective traffic can be
	// decomposed into the point-to-point flows it is built from:
	// sum(PeerBytesSent) == BytesSent and likewise for the receive side.
	// Nil when the communicator predates per-peer accounting (zero Comm).
	PeerBytesSent []int64
	PeerBytesRecv []int64
}

// traffic is one world rank's accounting, shared by the rank's
// communicators, its mailbox and its transport: the always-on traffic
// counters and the telemetry hook. The per-peer rows are world-rank
// indexed and sized when the rank's world communicator is built; all
// updates are atomic so any communicator derived from the rank, and the
// transport's own goroutines, may count concurrently.
type traffic struct {
	// tel is the rank's telemetry, nil when the world has none. It is set
	// when the rank's mailbox is made, before any goroutine that counts
	// starts, and never changes.
	tel *telemetry
	// rank is the world rank, the attribution of the rank's flight events.
	rank int

	msgsSent  atomic.Int64
	bytesSent atomic.Int64
	msgsRecv  atomic.Int64
	bytesRecv atomic.Int64

	msgsLanded  atomic.Int64
	bytesLanded atomic.Int64

	peerSent []atomic.Int64
	peerRecv []atomic.Int64
}

// telemetry returns the rank's telemetry, nil when it has none or for no
// counters at all.
func (t *traffic) telemetry() *telemetry {
	if t == nil {
		return nil
	}
	return t.tel
}

// countSend records n bytes sent to world rank peer.
func (t *traffic) countSend(peer, n int) {
	if t == nil {
		return
	}
	t.msgsSent.Add(1)
	t.bytesSent.Add(int64(n))
	if peer >= 0 && peer < len(t.peerSent) {
		t.peerSent[peer].Add(int64(n))
	}
}

// countRecv records n bytes received from world rank peer.
func (t *traffic) countRecv(peer, n int) {
	if t == nil {
		return
	}
	t.msgsRecv.Add(1)
	t.bytesRecv.Add(int64(n))
	if peer >= 0 && peer < len(t.peerRecv) {
		t.peerRecv[peer].Add(int64(n))
	}
}

// countLanded records that a message of n bytes landed in the parts of
// one of this rank's posted receives; countSend and countRecv count the message itself.
func (t *traffic) countLanded(n int) {
	if t == nil {
		return
	}
	t.msgsLanded.Add(1)
	t.bytesLanded.Add(int64(n))
}

// Traffic returns a snapshot of this rank's cumulative transport traffic.
// Collective operations are included (they are built from point-to-point
// messages), so the counters measure real wire load, not call counts.
func (c *Comm) Traffic() TrafficStats {
	t := c.counters
	if t == nil {
		return TrafficStats{}
	}
	s := TrafficStats{
		MessagesSent: t.msgsSent.Load(),
		BytesSent:    t.bytesSent.Load(),
		MessagesRecv: t.msgsRecv.Load(),
		BytesRecv:    t.bytesRecv.Load(),

		MessagesLanded: t.msgsLanded.Load(),
		BytesLanded:    t.bytesLanded.Load(),
	}
	if len(t.peerSent) > 0 {
		s.PeerBytesSent = make([]int64, len(t.peerSent))
		s.PeerBytesRecv = make([]int64, len(t.peerRecv))
		for i := range t.peerSent {
			s.PeerBytesSent[i] = t.peerSent[i].Load()
			s.PeerBytesRecv[i] = t.peerRecv[i].Load()
		}
	}
	return s
}
