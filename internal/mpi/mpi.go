// Package mpi is a from-scratch message-passing runtime providing the
// subset of MPI semantics the DDR library depends on: communicators,
// tagged matched point-to-point messaging (blocking and non-blocking),
// and the collectives DDR and its experiments use (barrier, broadcast,
// gather, allgather, allreduce). The paper's alltoallw with sub-array
// datatypes is not a collective here: a typed send (SendTyped) and a
// typed posted receive (Post) carry the same parts point to point.
//
// Ranks are goroutines, started by Launch. Three transports are
// provided: an in-process transport backed by per-rank mailboxes, shared-
// memory rings, and a TCP transport that exchanges the same frames over
// real sockets, usable both over loopback and across machines
// (NewTCPEndpoint). A Send never blocks on the matching Recv
// — small messages are copied and queued, larger ones written straight
// from the caller's buffer by a transport that drains into the
// receiver's mailbox on its own — the same progress guarantee a buffered
// MPI_Send provides. A receive may also be posted ahead of its message
// (Comm.Post, posted.go); in process a sender, and on shared memory the
// receiver's ring consumer, can then write the payload straight into the
// posted destination. In process a typed send may also come first and
// wait by reference to the sender's memory (Comm.Lend) for the post that
// copies it in.
package mpi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ddr/internal/obs"
)

// Wildcards for Recv matching, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)

// ErrClosed is reported by operations on a communicator whose world has
// been shut down.
var ErrClosed = errors.New("mpi: communicator closed")

// ErrPeerLost is wrapped by operations that fail because the remote rank
// is unreachable: its connection died and could not be re-established, a
// fault-injected link was severed, or delivery retries were exhausted.
// Match with errors.Is(err, mpi.ErrPeerLost).
var ErrPeerLost = errors.New("mpi: peer lost")

// ErrExchangeTimeout is wrapped by deadline-bounded sends (SendTyped)
// and exchanges that ran out of time before the peer produced or
// accepted the message. Match with errors.Is.
var ErrExchangeTimeout = errors.New("mpi: exchange timeout")

// envelope is one in-flight message. src is a world (global) rank; ctx
// identifies the communicator (sub-communicators derived via Split get
// their own context so their traffic cannot be confused with the
// parent's).
type envelope struct {
	ctx  uint32
	src  int
	tag  int
	data []byte

	// seq is a per-(sender,receiver) link sequence number stamped by the
	// fault-injection layer (zero means unsequenced). Mailboxes discard a
	// second delivery of an already-seen sequence number, which is what
	// makes chaos-injected duplicates harmless.
	seq uint64

	// cancel, when non-nil, aborts a transport enqueue that would
	// otherwise block (TCP backpressure, a saturated fault-injection
	// link). It is the deadline hook SendTyped threads through.
	cancel <-chan struct{}

	// pend is non-nil while the payload is still being reassembled from
	// chunked transport frames. The envelope is inserted into the mailbox
	// when its first chunk arrives — pinning its matching position so a
	// later same-tag message cannot overtake it — but stays unmatchable
	// until the transport marks it ready.
	pend *chunkPending

	// zc is non-nil for zero-copy sends: the payload — data, or zc.parts —
	// is borrowed from a caller blocked until the writer signals zc.done,
	// and is never recycled. Never set on mailbox envelopes.
	zc *borrow

	// lent is non-nil for a message queued in an inproc mailbox by
	// reference (Comm.Lend): its payload is the packed bytes of lent.parts,
	// in the sender's memory, and data is nil until the loan is repaid.
	lent *Loan

	// tc is the distributed trace context stamped on messages sent while
	// an exchange is being traced (tc.Exchange == 0 means untraced). The
	// TCP transport carries it in an optional frame extension; frames of
	// untraced messages are byte-identical to the pre-tracing format.
	tc TraceContext
}

// size is the payload length: data's, or a borrowed typed message's.
func (e *envelope) size() int {
	if e.zc != nil && e.zc.parts != nil {
		return e.zc.n
	}
	return len(e.data)
}

// TraceContext identifies the logical exchange a message belongs to:
// Exchange is the cluster-wide 64-bit exchange ID minted by
// core.ReorganizeData (0 = no context), Round the exchange round, and
// Span the sender-local span sequence within the exchange.
type TraceContext struct {
	Exchange uint64
	Round    uint32
	Span     uint32
}

// SetTraceContext installs tc as the context stamped on every subsequent
// send from this communicator until the next Set/ClearTraceContext. The
// caller is the exchange driver (one writer); readers are the send paths,
// which load it atomically.
func (c *Comm) SetTraceContext(tc TraceContext) {
	c.curTC.Store(&tc)
}

// ClearTraceContext removes the current trace context.
func (c *Comm) ClearTraceContext() {
	c.curTC.Store(nil)
}

// traceCtx returns the current trace context (zero when none is set).
func (c *Comm) traceCtx() TraceContext {
	if p := c.curTC.Load(); p != nil {
		return *p
	}
	return TraceContext{}
}

// chunkPending tracks the reassembly state of a chunk-streamed message.
// Both fields are guarded by the owning mailbox's mutex; the payload bytes
// are written by the transport's read loop alone until ready flips, so no
// consumer ever observes a partially filled buffer.
type chunkPending struct {
	ready bool
	post  *Posted // the posted receive bound to this message, if any (posted.go)
}

// is reports whether the envelope's identity satisfies (ctx, src, tag),
// honouring wildcards, whether or not its payload is complete.
func (e *envelope) is(ctx uint32, src, tag int) bool {
	if e.ctx != ctx {
		return false
	}
	if src != AnySource && e.src != src {
		return false
	}
	if tag != AnyTag && e.tag != tag {
		return false
	}
	return true
}

// seqWindow remembers the most recent link sequence numbers delivered by
// one sender so duplicate deliveries (fault-injected or retransmitted)
// can be discarded. A fixed ring bounds memory; the window only needs to
// cover the transport's maximum duplication distance, which is a handful
// of messages.
type seqWindow struct {
	ring [128]uint64
	n    int
}

// seen reports whether seq was already recorded and records it if not.
func (w *seqWindow) seen(seq uint64) bool {
	for i := range w.ring {
		if w.ring[i] == seq {
			return true
		}
	}
	w.ring[w.n%len(w.ring)] = seq
	w.n++
	return false
}

// mailbox holds a rank's unmatched incoming messages and its unmatched
// posted receives (posted.go). put never blocks; every receive, Recv
// included, is a post that takes a queued envelope or waits in posts for
// put to complete it.
type mailbox struct {
	mu     sync.Mutex
	queue  []envelope
	posts  []*Posted // open posted receives, oldest first
	closed bool
	err    error
	lost   map[int]error      // world src -> why that peer is unreachable
	seen   map[int]*seqWindow // world src -> dedupe window for sequenced envelopes
	// counters is the owning rank's accounting: its telemetry feeds the
	// pending-message gauge, the peers-lost counter and flight events.
	counters *traffic
	// wake nudges the shm ring consumer delivering into this mailbox when
	// a receive opens or binds (nil on other transports).
	wake chan struct{}
}

// newMailbox returns an empty mailbox with fresh counters for its rank,
// reporting to tel.
func newMailbox(tel *telemetry) *mailbox { return &mailbox{counters: &traffic{tel: tel}} }

// addDepth moves the pending-message gauge by d.
func (m *mailbox) addDepth(d int64) {
	if t := m.counters.telemetry(); t != nil {
		t.pendingMsgs.Add(d)
	}
}

// nudge signals ch without blocking: a pending signal coalesces, and a
// nil ch (a mailbox no ring consumer serves) drops it.
func nudge(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// awaits reports whether a receive from world rank src, or from
// AnySource, is open or bound to a reassembling chunk stream: whether the
// shm consumer must take src's next record now rather than leave it
// waiting in its ring.
func (m *mailbox) awaits(src int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.posts {
		if p.src == src || p.src == AnySource {
			return true
		}
	}
	for i := range m.queue {
		if pd := m.queue[i].pend; pd != nil && pd.post != nil && (pd.post.src == src || pd.post.src == AnySource) {
			return true
		}
	}
	return false
}

// lostCtx is the reserved communicator context for in-band peer-loss
// notifications: a control envelope the fault layer sends through the
// ordinary transport when it severs a link, so the loss notice arrives
// at the destination mailbox behind every message delivered before the
// sever. Split-derived contexts never mint this value in any realistic
// session.
const lostCtx = ^uint32(0) - 1

// inbandLostError is a peer-loss notice reconstructed from an in-band
// control message; it preserves ErrPeerLost identity across the wire.
type inbandLostError struct{ msg string }

func (e *inbandLostError) Error() string { return e.msg }
func (e *inbandLostError) Unwrap() error { return ErrPeerLost }

// put queues e, or hands it to the posted receive it completes. It is the
// one dedupe point of every transport: a sequenced envelope whose link
// sequence number the sender's window already holds is a replay, and put
// reports false, queuing nothing. A replayed whole message's payload is
// recycled here (every sequenced duplicate owns its copy); a replayed
// chunk stream's buffer stays with the transport reader still filling
// it, which recycles it once the stream ends.
func (m *mailbox) put(e envelope) bool {
	if e.ctx == lostCtx {
		err := &inbandLostError{msg: string(e.data)}
		PutBuffer(e.data)
		m.markLost(e.src, err)
		return true
	}
	m.mu.Lock()
	if !m.closed {
		if e.seq != 0 {
			if m.seen == nil {
				m.seen = make(map[int]*seqWindow)
			}
			w := m.seen[e.src]
			if w == nil {
				w = &seqWindow{}
				m.seen[e.src] = w
			}
			if w.seen(e.seq) {
				m.mu.Unlock()
				if e.pend == nil {
					PutBuffer(e.data)
				}
				if t := m.counters.telemetry(); t != nil && t.flight != nil {
					t.flight.Record(obs.FlightEvent{
						Kind: obs.FlightDup, Rank: int32(m.counters.rank), Peer: int32(e.src), Tag: int32(e.tag), Seq: e.seq,
						Round: int32(e.tc.Round), Exchange: e.tc.Exchange, Bytes: int64(len(e.data)),
					})
				}
				return false
			}
		}
		m.deliver(e)
	}
	m.mu.Unlock()
	return true
}

// markLost records that the given world rank is unreachable and fails
// every post waiting on it. Messages already queued from that rank remain
// deliverable; only a receive that would otherwise wait forever fails.
// The first loss with a flight recorder attached triggers the postmortem
// dump — this is the ErrPeerLost moment the recorder exists for.
func (m *mailbox) markLost(src int, err error) {
	m.mu.Lock()
	first := false
	if m.lost == nil {
		m.lost = make(map[int]error)
	}
	if _, dup := m.lost[src]; !dup {
		m.lost[src] = err
		first = true
		m.failPosts()
	}
	m.mu.Unlock()
	t := m.counters.telemetry()
	if !first || t == nil {
		return
	}
	t.peersLost.Add(1)
	if t.flight != nil {
		self := m.counters.rank
		t.flight.Record(obs.FlightEvent{Kind: obs.FlightPeerLost, Rank: int32(self), Peer: int32(src)})
		t.flight.DumpOnce(fmt.Sprintf("rank %d lost peer %d: %v", self, src, err))
	}
}

// removePending unlinks and recycles a still-reassembling envelope whose
// transport stream died before completion, so the pinned slot and its
// staging buffer are not leaked. A posted receive bound to it is open
// again, ahead of every younger post. Safe to call for envelopes that
// were never inserted (no-op).
func (m *mailbox) removePending(p *chunkPending) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.queue {
		if m.queue[i].pend == p {
			PutBuffer(m.take(i).data)
			if post := p.post; post != nil {
				p.post, post.pend = nil, nil
				m.open(post, true)
			}
			return
		}
	}
}

// take unlinks and returns the queued envelope at index i. A lent one is
// the taker's to repay from then on, and its sender's Settle waits for it.
func (m *mailbox) take(i int) envelope {
	e := m.queue[i]
	if e.lent != nil {
		e.lent.taken = true
	}
	m.queue = append(m.queue[:i], m.queue[i+1:]...)
	m.addDepth(-1)
	return e
}

// unsettled reports, and drops, every message still queued lent once the
// world's ranks have returned: its sender may have reused the memory the
// loan names, so nothing may read it any more.
func (m *mailbox) unsettled() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var err error
	for i := range m.queue {
		if e := &m.queue[i]; e.lent != nil {
			err = errors.Join(err, fmt.Errorf("mpi: rank %d: the message from rank %d (tag %d) is still lent: its sender never settled the loan", m.counters.rank, e.src, e.tag))
			e.lent = nil
		}
	}
	return err
}

// failure reports why a receive from src (a world rank or AnySource) can
// never be satisfied by a message not yet here: the mailbox closed, src
// was lost, or — for a wildcard on a communicator of the given group —
// every peer but self was. Nil while the receive may still complete.
func (m *mailbox) failure(src int, group []int, self int) error {
	if m.closed {
		if m.err != nil {
			return m.err
		}
		return ErrClosed
	}
	if src != AnySource {
		return m.lost[src]
	}
	if len(m.lost) == 0 || len(group) == 0 {
		return nil
	}
	var lerr error
	for _, w := range group {
		if w == self {
			continue
		}
		e, isLost := m.lost[w]
		if !isLost {
			return nil
		}
		lerr = e
	}
	return lerr
}

// complete marks a chunk-reassembled envelope as matchable: it goes to
// the posted receive bound to it, or waits in the queue for the next.
func (m *mailbox) complete(p *chunkPending) {
	m.mu.Lock()
	p.ready = true
	if post := p.post; post != nil {
		for i := range m.queue {
			if m.queue[i].pend == p {
				p.post, post.pend = nil, nil
				post.finish(m.take(i), nil)
				break
			}
		}
	}
	m.mu.Unlock()
}

func (m *mailbox) close(err error) {
	m.mu.Lock()
	m.closed = true
	if m.err == nil {
		m.err = err
	}
	m.failPosts()
	m.mu.Unlock()
}

// transport moves envelopes between world ranks. Implementations must be
// safe for concurrent Sends and must preserve per-(sender,receiver) order.
type transport interface {
	send(dst int, e envelope) error
	close() error
}

// Comm is a communicator: a group of ranks that can exchange point-to-
// point messages and participate in collectives. The zero value is not
// usable; communicators are obtained from Launch, TCPEndpoint.Join, or
// Comm.Split.
type Comm struct {
	rank  int   // rank within this communicator
	group []int // communicator rank -> world rank
	ctx   uint32

	world *Comm // root communicator (self for the world)
	tr    transport
	box   *mailbox

	collSeq  int // per-rank collective sequence number
	splitSeq int // per-rank Split sequence number

	counters *traffic // the rank's, shared across communicators derived from it

	// curTC is the trace context stamped on sends while an exchange is in
	// flight on this communicator (nil = untraced). One writer (the
	// exchange driver), read atomically by the send paths.
	curTC atomic.Pointer[TraceContext]
}

// Rank returns the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// WorldRank returns the world (root communicator) rank of the given rank
// in this communicator.
func (c *Comm) WorldRank(rank int) int { return c.group[rank] }

func (c *Comm) checkRank(rank int) error {
	if rank < 0 || rank >= len(c.group) {
		return fmt.Errorf("mpi: rank %d out of range [0,%d)", rank, len(c.group))
	}
	return nil
}

// Send delivers data to dst with the given tag. The tag must be
// non-negative (negative tags are reserved for collectives). The caller
// may reuse the buffer as soon as Send returns and Send never waits for
// the receiver: on bare inproc it lands in the receiver's open post of
// exactly its packed size, on shm (every size) and tcp (from readBufSize up)
// the transport writes straight from the caller's buffer and Send blocks
// until it has, and otherwise it is copied into an arena wire and queued.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if _, err := c.sendArgs(nil, dst, tag); err != nil {
		return err
	}
	return c.send(nil, dst, tag, data, nil, nil, nil)
}

// send is the one delivery path behind Send, SendTyped, Lend and the
// collectives, without the user-tag restriction. The payload is the
// packed bytes of parts, or data when parts is nil, so a plain send
// builds no part list. The transport's typedSender capability decides
// first — land it, queue it lent on l (nil for no loan), lend it to a
// writer, write it to a ring — and a message it does not handle is
// gathered into an arena wire, charged to meter (nil for none) until it
// is handed to the transport, which owns it from then on. Unless the
// message went out on l, the caller may touch its buffers again once send
// returns.
func (c *Comm) send(cancel <-chan struct{}, dst, tag int, data []byte, parts []Part, meter *StagingMeter, l *Loan) error {
	n := len(data)
	if parts != nil {
		n = partsSize(parts)
	}
	dstWorld := c.group[dst]
	tc, start := c.sendBegin(dstWorld, tag, n)
	e := envelope{ctx: c.ctx, src: c.group[c.rank], tag: tag, data: data, cancel: cancel, tc: tc}
	var handled bool
	var err error
	if ts, ok := c.tr.(typedSender); ok {
		handled, err = ts.sendTyped(dstWorld, e, parts, n, l)
	}
	if !handled {
		e.data = GetBufferMetered(n, meter)
		if parts == nil {
			copy(e.data, data)
		} else {
			packParts(e.data, parts)
		}
		meter.Release(cap(e.data))
		err = c.tr.send(dstWorld, e)
	}
	c.sendEnd(dstWorld, n, start)
	return sendTimeout(err, dst, tag)
}

// sendArgs validates a send's destination and tag and turns its context
// into the transport's cancel channel (nil for a nil ctx).
func (c *Comm) sendArgs(ctx context.Context, dst, tag int) (<-chan struct{}, error) {
	if err := c.checkRank(dst); err != nil {
		return nil, err
	}
	if tag < 0 {
		return nil, fmt.Errorf("mpi: negative tag %d is reserved", tag)
	}
	if ctx == nil {
		return nil, nil
	}
	if ctx.Err() != nil {
		return nil, sendTimeout(ErrExchangeTimeout, dst, tag)
	}
	return ctx.Done(), nil
}

// sendTimeout names the send a deadline expiry belongs to.
func sendTimeout(err error, dst, tag int) error {
	if errors.Is(err, ErrExchangeTimeout) {
		return fmt.Errorf("mpi: send to rank %d tag %d: %w", dst, tag, ErrExchangeTimeout)
	}
	return err
}

// sendEnd closes the telemetry sendBegin opened for a send of n bytes.
func (c *Comm) sendEnd(dstWorld, n int, start time.Time) {
	c.counters.countSend(dstWorld, n)
	if t := c.counters.telemetry(); t != nil {
		t.sendLatency.ObserveSince(start)
		t.wireSent.Add(int64(n))
	}
}

// sendBegin opens one send's telemetry: the flight event and the latency
// clock (zero when the rank has no telemetry), plus the trace context the
// message will carry.
func (c *Comm) sendBegin(dstWorld, tag, n int) (tc TraceContext, start time.Time) {
	tc = c.traceCtx()
	if t := c.counters.telemetry(); t != nil {
		start = time.Now()
		if t.flight != nil {
			t.flight.Record(obs.FlightEvent{
				Kind: obs.FlightSend, Rank: int32(c.group[c.rank]), Peer: int32(dstWorld),
				Tag: int32(tag), Round: int32(tc.Round), Exchange: tc.Exchange, Bytes: int64(n),
			})
		}
	}
	return tc, start
}

// recvPosts holds the posted receives blocking Recvs wait on, so Recv
// allocates nothing in steady state.
var recvPosts = sync.Pool{New: func() any { return new(Posted) }}

// Recv blocks until a message matching (src, tag) arrives and returns its
// payload along with the sender's communicator rank and tag. src may be
// AnySource and tag may be AnyTag. Recv is a post with no parts
// (Comm.Post) and its wait, so it matches in FIFO order with every other
// receive on this communicator for the same (source, tag): Irecvs and the
// exchange executor's posts. If the specific source rank becomes
// unreachable while waiting, Recv fails with an error wrapping
// ErrPeerLost instead of hanging.
func (c *Comm) Recv(src, tag int) (data []byte, from, gotTag int, err error) {
	p := recvPosts.Get().(*Posted)
	defer recvPosts.Put(p)
	e, taken, err := c.post(p, src, tag, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	if !taken {
		return p.recv(nil)
	}
	e.repay(nil, 0)
	c.recvDone(&e, len(e.data), c.recvStart())
	return e.data, c.localRank(e.src), e.tag, nil
}

// recvStart is when a receive begins to wait, for its latency: now when
// the rank has telemetry, the zero time, which nothing reads, without.
func (c *Comm) recvStart() (start time.Time) {
	if c.counters.telemetry() != nil {
		start = time.Now()
	}
	return start
}

// recvDone accounts for one consumed message of n payload bytes: traffic
// counters, and — when the rank has telemetry, start being when the
// receive began to wait — latency, wire bytes and the flight event.
func (c *Comm) recvDone(e *envelope, n int, start time.Time) {
	c.counters.countRecv(e.src, n)
	if t := c.counters.telemetry(); t != nil {
		t.recvLatency.ObserveSince(start)
		t.wireRecv.Add(int64(n))
		if t.flight != nil {
			t.flight.Record(obs.FlightEvent{
				Kind: obs.FlightRecv, Rank: int32(c.group[c.rank]), Peer: int32(e.src),
				Tag: int32(e.tag), Round: int32(e.tc.Round), Seq: e.seq,
				Exchange: e.tc.Exchange, Bytes: int64(n),
			})
		}
	}
}

// resolveSrc maps a communicator-relative source (or AnySource) to a
// world rank for mailbox matching.
func (c *Comm) resolveSrc(src int) (int, error) {
	if src == AnySource {
		return AnySource, nil
	}
	if err := c.checkRank(src); err != nil {
		return 0, err
	}
	return c.group[src], nil
}

// localRank translates a world rank into this communicator's numbering.
func (c *Comm) localRank(worldRank int) int {
	for i, g := range c.group {
		if g == worldRank {
			return i
		}
	}
	return -1
}

// identityGroup returns [0,1,...,n).
func identityGroup(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

// inprocWorld is the channel-free shared-memory transport: sending is an
// append to the destination mailbox.
type inprocWorld struct {
	boxes []*mailbox
}

type inprocTransport struct {
	w *inprocWorld
}

func (t *inprocTransport) send(dst int, e envelope) error {
	if dst < 0 || dst >= len(t.w.boxes) {
		return fmt.Errorf("mpi: world rank %d out of range", dst)
	}
	t.w.boxes[dst].put(e)
	return nil
}

// sendTyped implements the typedSender capability by landing: it takes
// the receiver's oldest open post for this message when that post's parts
// pack to exactly n > 0 bytes, copies the payload straight into them and
// completes the post — one copy end to end, no arena wire, whether either
// side is strided or not. Only bare inproc may: delivery here is
// synchronous, so none of this sender's earlier messages can still be in
// flight behind a claim that jumps the queue. With a loan and no post open
// for the message, it queues the message lent instead, at its FIFO
// position, for the receiver's post to copy or pack (Comm.Lend). Any other
// case is not handled, and the message is packed and queued.
func (t *inprocTransport) sendTyped(dst int, e envelope, parts []Part, n int, l *Loan) (bool, error) {
	if n == 0 || dst < 0 || dst >= len(t.w.boxes) {
		return false, nil
	}
	box := t.w.boxes[dst]
	p, lent := box.claim(envelope{ctx: e.ctx, src: e.src, tag: e.tag, tc: e.tc}, n, parts, l)
	if p == nil {
		return lent, nil
	}
	p.land(e.data, parts)
	box.commit(p, e.tc)
	return true, nil
}

func (t *inprocTransport) close() error { return nil }

// inprocComms builds the world communicators of an in-process world, one
// a rank, rank r reporting to tels[r].
func inprocComms(tels []*telemetry) []*Comm {
	n := len(tels)
	w := &inprocWorld{boxes: make([]*mailbox, n)}
	comms := make([]*Comm, n)
	for rank := range comms {
		w.boxes[rank] = newMailbox(tels[rank])
		comms[rank] = worldComm(rank, n, &inprocTransport{w: w}, w.boxes[rank])
	}
	return comms
}
