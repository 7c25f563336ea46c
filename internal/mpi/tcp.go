package mpi

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ddr/internal/obs"
)

// Wire protocol v2. A connection carries one rank's messages: the dialer
// opens it with a 4-byte preamble, its world rank as a u32, and every
// frame after it starts with a 20-byte header:
//
//	off  0  type  u8   frameMsg or frameChunk
//	off  1  flags u8   extension bits (zero before tracing existed)
//	off  2  reserved (2 bytes, zero)
//	off  4  ctx   u32  communicator context
//	off  8  src   u32  sender's world rank (the preamble's rank)
//	off 12  tag   u32  message tag (two's-complement int32)
//	off 16  len   u32  payload bytes following this header (this frame only)
//
// Byte 1 is the flags byte (historically reserved-zero, so old frames
// parse as flags 0). The only defined bit is tcpFlagTrace: the frame
// carries a 16-byte trace-context extension — exchange u64, round u32,
// span u32 — placed after every other extension (chunk and/or seq) and
// before the payload. Frames sent without an active trace context have
// flags 0 and are byte-identical to the pre-tracing format; unknown flag
// bits are a protocol error.
//
// frameMsg carries a complete message. frameChunk carries one slice of a
// chunk-streamed message and inserts a 16-byte extension between header
// and payload:
//
//	off  0  stream u32  per-connection stream id
//	off  4  reserved (4 bytes, zero)
//	off  8  total  u64  full message size in bytes
//
// Chunks of one stream arrive in order (single writer per connection);
// chunks of different streams and whole frames may interleave freely, so
// a large payload never head-of-line-blocks the connection. The receiver
// reassembles chunks directly into an arena buffer pinned in the mailbox
// at first-chunk time, which preserves per-(sender,receiver) matching
// order. All integers are little endian.
const (
	tcpPreamble    = 4
	tcpFrameHeader = 20
	tcpChunkExt    = 16
)

// Frame types. The zero value is deliberately invalid so an all-zero or
// desynchronized stream fails fast. The Seq variants are the v3
// extension for sequenced (fault-injected) traffic: they append an 8-byte
// little-endian sequence number (after the chunk extension, when
// present) — the link sequence number the fault-injection layer stamped
// on the message — letting the receiver discard the duplicates the
// injector replays. A message without one goes out as the v2 types,
// byte-identically to before.
const (
	frameMsg      byte = 1
	frameChunk    byte = 2
	frameMsgSeq   byte = 3
	frameChunkSeq byte = 4
)

// tcpSeqExt is the size of the v3 sequence-number extension.
const tcpSeqExt = 8

// tcpFlagTrace marks a frame carrying the 16-byte trace-context
// extension (exchange u64, round u32, span u32), appended after the
// chunk and seq extensions when present.
const tcpFlagTrace byte = 0x01

// tcpTraceExt is the size of the trace-context extension.
const tcpTraceExt = 16

// errTCPProto classifies malformed incoming frames (unknown type byte,
// impossible lengths, inconsistent chunk streams, a source other than
// the connection's dialer). A connection that produces one is
// desynchronized beyond recovery and is dropped.
var errTCPProto = errors.New("mpi: tcp protocol error")

// tcpConfig is the transport's wire geometry. Every endpoint runs
// defaultTCPConfig; tests shrink it to reach the chunk and backpressure
// paths with small payloads. TCP_NODELAY stays on (Go's default for TCP
// connections): frames are already coalesced into vectored writes, so
// kernel-side batching would only add latency.
type tcpConfig struct {
	// sndbuf sets SO_SNDBUF in bytes on every connection; 0 keeps the OS
	// default.
	sndbuf int
	// chunkThreshold is the payload size in bytes above which a message is
	// split into chunk sub-frames so it cannot head-of-line-block its
	// connection.
	chunkThreshold int
	// chunkSize is the payload size of each chunk sub-frame — large enough
	// that chunking costs little throughput on a fast link, small enough
	// that a control frame waits at most one chunk's transmission time.
	chunkSize int
	// queueLen is the per-peer send queue capacity in frames. A full
	// queue applies backpressure: Send blocks until the writer drains.
	queueLen int
	// batch is the maximum number of queued frames coalesced into one
	// vectored write.
	batch int
}

const (
	tcpChunkThreshold = 1 << 20
	tcpChunkSize      = 8 << 20
	tcpSendQueueLen   = 256
	tcpWriteBatch     = 64
)

var defaultTCPConfig = tcpConfig{
	chunkThreshold: tcpChunkThreshold,
	chunkSize:      tcpChunkSize,
	queueLen:       tcpSendQueueLen,
	batch:          tcpWriteBatch,
}

const (
	// readBufSize is the per-connection buffered-reader size: the read
	// loop's counterpart to the writer's vectored batches, it turns a
	// storm of small frames into one read syscall per buffer fill. Large
	// payload reads bypass the buffer entirely (io.ReadFull with a
	// request bigger than the buffer reads straight into the arena).
	readBufSize = 64 << 10
	// tcpFlushTimeout bounds how long Close waits for a writer to drain
	// its queue before force-closing the connection under it.
	tcpFlushTimeout = 5 * time.Second
	// Decoder hard limits for frames produced by well-behaved peers.
	maxSingleFrame   = math.MaxUint32
	maxChunkTotal    = 1 << 34 // 16 GiB reassembled message
	maxInboundChunks = 1 << 10 // concurrent partial streams per connection
)

// apply sets the per-connection socket options.
func (c *tcpConfig) apply(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok && c.sndbuf > 0 {
		tc.SetWriteBuffer(c.sndbuf) //nolint:errcheck // best effort
	}
}

// TCPEndpoint is one rank's attachment point to a TCP-transported world.
// Create an endpoint per rank, distribute all endpoint addresses (lbmsim's
// split roles trade theirs through a rendezvous file), then call Join.
//
// Sending is asynchronous: a per-peer writer goroutine drains a bounded
// queue and coalesces pending frames into a single vectored write, so
// Send/Isend return at enqueue time and small control frames batch with
// data frames. Payloads above the chunk threshold are streamed as
// interleavable chunk frames (see the wire protocol above).
type TCPEndpoint struct {
	listener net.Listener
	box      *mailbox
	cfg      tcpConfig
	stop     chan struct{} // closed by Close: writers flush and exit

	mu      sync.Mutex
	peers   map[int]*tcpPeer
	inbound map[net.Conn]struct{}
	closed  bool
}

// tel is the endpoint's rank's telemetry, nil when it has none; it is in
// the box before the accept loop starts.
func (ep *TCPEndpoint) tel() *telemetry { return ep.box.counters.telemetry() }

// rank is the world rank Join assigned the endpoint.
func (ep *TCPEndpoint) rank() int { return ep.box.counters.rank }

func (ep *TCPEndpoint) queueDepthAdd(n int64) {
	if t := ep.tel(); t != nil {
		t.tcpQueueDepth.Add(n)
	}
}

// NewTCPEndpoint binds a listener on bind (e.g. "127.0.0.1:0") and starts
// accepting peer connections. Its rank reports to no telemetry: a
// rank's bundle must bind here, not at Join, because the endpoint's read
// loops start here and count from their first frame.
func NewTCPEndpoint(bind string) (*TCPEndpoint, error) {
	return newTCPEndpoint(bind, defaultTCPConfig, nil)
}

// newTCPEndpoint is NewTCPEndpoint on the wire geometry cfg, reporting to
// tel; Launch passes each rank's bundle, and tests pass small geometries.
func newTCPEndpoint(bind string, cfg tcpConfig, tel *telemetry) (*TCPEndpoint, error) {
	l, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("mpi: tcp listen: %w", err)
	}
	ep := &TCPEndpoint{
		listener: l,
		box:      newMailbox(tel),
		cfg:      cfg,
		stop:     make(chan struct{}),
		peers:    map[int]*tcpPeer{},
		inbound:  map[net.Conn]struct{}{},
	}
	go ep.acceptLoop()
	return ep, nil
}

// Addr returns the endpoint's listen address to share with peers.
func (ep *TCPEndpoint) Addr() string { return ep.listener.Addr().String() }

func (ep *TCPEndpoint) acceptLoop() {
	for {
		conn, err := ep.listener.Accept()
		if err != nil {
			return
		}
		ep.cfg.apply(conn)
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			conn.Close()
			return
		}
		ep.inbound[conn] = struct{}{}
		ep.mu.Unlock()
		go ep.readLoop(conn)
	}
}

func (ep *TCPEndpoint) readLoop(conn net.Conn) {
	br := bufio.NewReaderSize(conn, readBufSize)
	// The preamble names the rank that dialed, attributing the connection
	// before its first frame; one that dies before it carried no rank.
	src := -1
	var pre [tcpPreamble]byte
	if _, err := io.ReadFull(br, pre[:]); err == nil {
		src = int(binary.LittleEndian.Uint32(pre[:]))
	}
	dec := newFrameDecoder(ep.box, src, maxSingleFrame, maxChunkTotal, maxInboundChunks)
	dec.ep = ep
	defer func() {
		conn.Close()
		ep.mu.Lock()
		delete(ep.inbound, conn)
		closed := ep.closed
		ep.mu.Unlock()
		// Incomplete chunk streams died with the connection: unpin their
		// mailbox slots and recycle the reassembly buffers.
		dec.cleanup()
		if !closed && src >= 0 {
			// The connection died while the endpoint is still live: the
			// rank that dialed it is gone.
			ep.box.markLost(src, fmt.Errorf(
				"mpi: tcp connection from rank %d (%s) died: %w", src, conn.RemoteAddr(), ErrPeerLost))
		}
	}()
	if src < 0 {
		return
	}
	for {
		if _, err := dec.readFrame(br); err != nil {
			if errors.Is(err, errTCPProto) {
				obs.Warnf("mpi: tcp read from %s: %v (dropping connection)", conn.RemoteAddr(), err)
			}
			return
		}
	}
}

// Join assembles the world communicator for this endpoint. rank is this
// endpoint's world rank and addrs lists every rank's endpoint address in
// rank order (addrs[rank] should be this endpoint's own address). It
// takes no telemetry: that binds in NewTCPEndpoint, where reading starts.
func (ep *TCPEndpoint) Join(rank int, addrs []string) (*Comm, error) {
	if rank < 0 || rank >= len(addrs) {
		return nil, fmt.Errorf("mpi: tcp rank %d out of range for %d addresses", rank, len(addrs))
	}
	return ep.join(rank, addrs), nil
}

// join is Join for a rank known to be in range.
func (ep *TCPEndpoint) join(rank int, addrs []string) *Comm {
	return worldComm(rank, len(addrs), &tcpTransport{ep: ep, addrs: addrs}, ep.box)
}

// Close shuts the endpoint down: new sends are refused, per-peer writers
// flush their queues (bounded by tcpFlushTimeout each), and the listener
// and all connections are closed, failing any receive still blocked on
// the endpoint.
func (ep *TCPEndpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	peers := make([]*tcpPeer, 0, len(ep.peers))
	for _, p := range ep.peers {
		peers = append(peers, p)
	}
	inbound := make([]net.Conn, 0, len(ep.inbound))
	for c := range ep.inbound {
		inbound = append(inbound, c)
	}
	ep.mu.Unlock()

	// Flush: writers drain what is already queued, then exit. A writer
	// wedged on a peer that stopped reading is force-closed under.
	close(ep.stop)
	timeout := time.After(tcpFlushTimeout)
	for _, p := range peers {
		select {
		case <-p.dead:
		case <-timeout:
			p.conn.Close()
			<-p.dead
		}
	}
	err := ep.listener.Close()
	for _, p := range peers {
		p.conn.Close()
	}
	for _, c := range inbound {
		c.Close()
	}
	ep.box.close(nil)
	return err
}

// tcpPeer is one outgoing connection: a socket, a bounded frame queue,
// and the writer goroutine that drains it.
type tcpPeer struct {
	ep         *TCPEndpoint
	rank       int
	conn       net.Conn // written by the writer, force-closed by Close
	queue      chan envelope
	dead       chan struct{} // closed when the writer has exited
	nextStream uint32
	warned     atomic.Bool
	// frames and batches count the frames written and the vectored writes
	// that carried them. The writer alone writes them; read them once it
	// has exited (dead is closed).
	frames, batches int64

	errMu sync.Mutex
	err   error // sticky first write error, ErrClosed after clean shutdown
}

func (p *tcpPeer) fail(err error) {
	p.errMu.Lock()
	if p.err == nil {
		if err == nil {
			err = ErrClosed
		}
		p.err = err
	}
	p.errMu.Unlock()
}

func (p *tcpPeer) error() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	if p.err == nil {
		return ErrClosed
	}
	return p.err
}

// enqueue hands a frame to the writer, blocking when the queue is full
// (backpressure). The payload's ownership passes to the writer, which
// recycles it into the arena once written.
func (p *tcpPeer) enqueue(e envelope) error {
	select {
	case <-p.dead:
		return p.error()
	default:
	}
	select {
	case p.queue <- e:
		p.ep.queueDepthAdd(1)
		return nil
	default:
	}
	// Queue saturated: record the event, warn once per peer, then apply
	// backpressure by blocking until the writer drains or dies (or the
	// sender's deadline, when it set one, expires). The saturation counter
	// moves on every occurrence — the log line does not.
	if t := p.ep.tel(); t != nil {
		t.tcpBackpressure.Add(1)
		t.tcpSendqSat.Add(1)
		if t.flight != nil {
			t.flight.Record(obs.FlightEvent{
				Kind: obs.FlightSaturation, Rank: int32(p.ep.rank()), Peer: int32(p.rank),
				Tag: int32(e.tag), Round: int32(e.tc.Round), Exchange: e.tc.Exchange, Bytes: int64(e.size()),
			})
		}
	}
	if p.warned.CompareAndSwap(false, true) {
		obs.Warnf("mpi: tcp send queue to rank %d saturated (cap %d frames); backpressure engaged — slow consumer",
			p.rank, cap(p.queue))
	}
	if e.cancel != nil {
		select {
		case p.queue <- e:
			p.ep.queueDepthAdd(1)
			return nil
		case <-p.dead:
			return p.error()
		case <-e.cancel:
			PutBuffer(e.data)
			return ErrExchangeTimeout
		}
	}
	select {
	case p.queue <- e:
		p.ep.queueDepthAdd(1)
		return nil
	case <-p.dead:
		return p.error()
	}
}

// outStream is a large message being chunk-streamed to the peer.
type outStream struct {
	e   envelope
	id  uint32
	off int
	seq uint64 // the fault layer's link seq, shared by every chunk; 0 = unsequenced
}

// writeLoop drains the queue, coalescing pending frames into vectored
// writes and interleaving chunk sub-frames of large messages so small
// control traffic never waits behind a bulk payload. It exits when the
// endpoint closes (after flushing) or the connection fails.
func (p *tcpPeer) writeLoop() {
	ep := p.ep
	cfg := ep.cfg
	var (
		iov       [][]byte    // reused iovec backing
		wb        net.Buffers // iov as WriteTo consumes it; escapes, so declared once
		hdrs      []byte      // reused header arena; pointers into it live in iov
		items     []envelope
		streams   []*outStream
		batchMsgs []envelope   // whole messages in the current batch (payloads still owned)
		batchDone []*outStream // streams fully emitted in the current batch
		loopErr   error
		draining  bool
	)
	defer func() {
		p.fail(loopErr)
		close(p.dead)
		// Release anything still queued or streaming so blocked senders
		// observe the death instead of a silent hang.
		p.drain()
		for _, s := range streams {
			release(&s.e, p.error())
		}
	}()
	// A message's sequence number is the one the fault-injection layer
	// above stamped (unique per link); zero means "unsequenced" and selects
	// the v2 frame types.
	for {
		items = items[:0]
		if !draining {
			if len(streams) == 0 && len(items) == 0 {
				// Nothing in flight: block for work or shutdown.
				select {
				case e := <-p.queue:
					ep.queueDepthAdd(-1)
					items = append(items, e)
				case <-p.ep.stop:
					draining = true
				}
			} else {
				select {
				case e := <-p.queue:
					ep.queueDepthAdd(-1)
					items = append(items, e)
				case <-p.ep.stop:
					draining = true
				default:
					// Streams in flight keep the loop spinning.
				}
			}
		}
	collect:
		for len(items) < cfg.batch {
			select {
			case e := <-p.queue:
				ep.queueDepthAdd(-1)
				items = append(items, e)
			default:
				break collect
			}
		}
		if len(items) == 0 && len(streams) == 0 {
			if draining {
				return
			}
			continue
		}

		// Reserve header space up front: growing hdrs mid-batch would
		// invalidate the pointers already appended to the iovec. Each item
		// contributes at most one header+extensions and may open a stream
		// that advances once more in the same batch.
		need := (2*len(items) + len(streams)) * (tcpFrameHeader + tcpChunkExt + tcpSeqExt + tcpTraceExt)
		if cap(hdrs) < need {
			hdrs = make([]byte, 0, need)
		} else {
			hdrs = hdrs[:0]
		}
		iov = iov[:0]
		batchMsgs = batchMsgs[:0]
		batchDone = batchDone[:0]
		var frames, chunks int64

		grab := func(n int) []byte {
			h := hdrs[len(hdrs) : len(hdrs)+n]
			hdrs = hdrs[:len(hdrs)+n]
			return h
		}
		putHeader := func(h []byte, typ, flags byte, e *envelope, n int) {
			h[0], h[1], h[2], h[3] = typ, flags, 0, 0
			binary.LittleEndian.PutUint32(h[4:], e.ctx)
			binary.LittleEndian.PutUint32(h[8:], uint32(e.src))
			binary.LittleEndian.PutUint32(h[12:], uint32(int32(e.tag)))
			binary.LittleEndian.PutUint32(h[16:], uint32(n))
		}
		// putTraceExt appends the trace-context extension at the tail of the
		// header block (after chunk and seq extensions).
		putTraceExt := func(h []byte, tc TraceContext) {
			off := len(h) - tcpTraceExt
			binary.LittleEndian.PutUint64(h[off:], tc.Exchange)
			binary.LittleEndian.PutUint32(h[off+8:], tc.Round)
			binary.LittleEndian.PutUint32(h[off+12:], tc.Span)
		}
		emitChunk := func(s *outStream) {
			n := len(s.e.data) - s.off
			if n > cfg.chunkSize {
				n = cfg.chunkSize
			}
			ext := tcpChunkExt
			typ := frameChunk
			if s.seq != 0 {
				ext += tcpSeqExt
				typ = frameChunkSeq
			}
			flags := byte(0)
			if s.e.tc.Exchange != 0 {
				flags = tcpFlagTrace
				ext += tcpTraceExt
			}
			h := grab(tcpFrameHeader + ext)
			putHeader(h, typ, flags, &s.e, n)
			binary.LittleEndian.PutUint32(h[tcpFrameHeader:], s.id)
			binary.LittleEndian.PutUint32(h[tcpFrameHeader+4:], 0)
			binary.LittleEndian.PutUint64(h[tcpFrameHeader+8:], uint64(len(s.e.data)))
			if s.seq != 0 {
				binary.LittleEndian.PutUint64(h[tcpFrameHeader+tcpChunkExt:], s.seq)
			}
			if flags != 0 {
				putTraceExt(h, s.e.tc)
			}
			iov = append(iov, h, s.e.data[s.off:s.off+n])
			s.off += n
			frames++
			chunks++
		}

		// Queued frames first, in order: a large message opens a stream and
		// emits its first chunk at its queue position, pinning its mailbox
		// slot at the receiver so matching order is preserved.
		for _, e := range items {
			n := e.size()
			if n > cfg.chunkThreshold {
				// Only data-backed payloads stream: a typed message this
				// large was packed into an arena wire before it was queued.
				s := &outStream{e: e, id: p.nextStream, seq: e.seq}
				p.nextStream++
				emitChunk(s)
				if s.off < len(s.e.data) {
					streams = append(streams, s)
				} else {
					batchDone = append(batchDone, s)
				}
				continue
			}
			seq := e.seq
			ext := 0
			typ := frameMsg
			if seq != 0 {
				ext += tcpSeqExt
				typ = frameMsgSeq
			}
			flags := byte(0)
			if e.tc.Exchange != 0 {
				flags = tcpFlagTrace
				ext += tcpTraceExt
			}
			h := grab(tcpFrameHeader + ext)
			putHeader(h, typ, flags, &e, n)
			if seq != 0 {
				binary.LittleEndian.PutUint64(h[tcpFrameHeader:], seq)
			}
			if flags != 0 {
				putTraceExt(h, e.tc)
			}
			iov = append(iov, h)
			if e.zc != nil && e.zc.parts != nil {
				// A typed message goes out as its parts' runs, straight
				// from the caller's buffers.
				iov = appendRuns(iov, e.zc.parts)
			} else if len(e.data) > 0 {
				iov = append(iov, e.data)
			}
			batchMsgs = append(batchMsgs, e)
			frames++
		}
		// Then one more chunk per in-flight stream, round-robin.
		live := streams[:0]
		for _, s := range streams {
			emitChunk(s)
			if s.off < len(s.e.data) {
				live = append(live, s)
			} else {
				batchDone = append(batchDone, s)
			}
		}
		streams = live

		conn := p.conn
		if draining {
			conn.SetWriteDeadline(time.Now().Add(tcpFlushTimeout)) //nolint:errcheck
		}
		// Count the batch before writing it: once the bytes are out, the
		// peer can answer and the sender read its counters before this
		// goroutine runs again.
		p.frames += frames
		p.batches++
		tel := ep.tel()
		if tel != nil {
			if frames > 1 {
				tel.tcpCoalesced.Add(frames)
			}
			if chunks > 0 {
				tel.tcpChunksOut.Add(chunks)
			}
		}
		if testHookBeforeWrite != nil {
			testHookBeforeWrite(batchMsgs)
		}
		wb = iov
		nw, werr := wb.WriteTo(conn)
		if tel != nil {
			tel.tcpOut.Add(nw)
		}
		if werr != nil {
			loopErr = fmt.Errorf("mpi: tcp send to rank %d: %v: %w", p.rank, werr, ErrPeerLost)
		}
		// The batch's payloads go back — borrowed ones to their blocked
		// senders, with the write's outcome — and nothing the writer keeps
		// for the next batch may reach them any more.
		for i := range batchMsgs {
			release(&batchMsgs[i], loopErr)
		}
		for _, s := range batchDone {
			release(&s.e, loopErr)
		}
		clear(iov)
		clear(items)
		clear(batchMsgs)
		clear(batchDone)
		if loopErr != nil {
			return
		}
	}
}

// testHookBeforeWrite, when set, runs on every batch's whole messages just
// before the writer writes them — where a test plants a writer bug. Set
// only by tests, while no endpoint is open.
var testHookBeforeWrite func(batch []envelope)

// release ends the writer's hold on e's payload: a borrowed one goes back
// to its blocked sender with err, an owned one to the arena.
func release(e *envelope, err error) {
	if e.zc != nil {
		e.zc.done <- err
	} else {
		PutBuffer(e.data)
	}
}

// drain releases everything still queued to a dead writer with its error.
// Any goroutine may drain: each envelope is received, and so released,
// exactly once.
func (p *tcpPeer) drain() {
	err := p.error()
	for {
		select {
		case e := <-p.queue:
			p.ep.queueDepthAdd(-1)
			release(&e, err)
		default:
			return
		}
	}
}

// await blocks until the writer releases the borrowed payload b. A sender
// that queued b just as the writer died may find nobody left to take it,
// so once the writer is dead the sender drains the queue itself — b is
// then released by whoever received it.
func (p *tcpPeer) await(b *borrow) error {
	select {
	case err := <-b.done:
		return err
	case <-p.dead:
		p.drain()
		return <-b.done
	}
}

type tcpTransport struct {
	ep    *TCPEndpoint
	addrs []string
}

func (t *tcpTransport) send(dst int, e envelope) error {
	if dst < 0 || dst >= len(t.addrs) {
		return fmt.Errorf("mpi: tcp world rank %d out of range", dst)
	}
	p, err := t.ep.dial(dst, t.addrs[dst])
	if err != nil {
		return err
	}
	return p.enqueue(e)
}

// sendTyped implements the typedSender capability by lending, from
// readBufSize up — the size at which the receiving read loop stops
// batching frames through its buffer and reads the payload straight into
// the arena — and only without a deadline (a lent payload cannot be
// abandoned mid-queue). A plain payload (nil parts) goes as one frame, or
// a chunk stream, straight from the caller's buffer; typed parts that fit
// one frame have their runs appended to the writer's vectored write.
// Smaller messages are copied or packed and queued, so a storm of them
// still coalesces without the sender waiting.
func (t *tcpTransport) sendTyped(dst int, e envelope, parts []Part, n int, _ *Loan) (bool, error) {
	if e.cancel != nil || n < readBufSize {
		return false, nil
	}
	if parts == nil {
		return true, t.lend(dst, e, nil, 0)
	}
	if n > t.ep.cfg.chunkThreshold {
		return false, nil
	}
	return true, t.lend(dst, e, parts, n)
}

// lend queues e with its payload — data, or parts of n packed bytes when
// set — borrowed from the caller, and blocks until the writer has written
// it (or died). The wait keeps Send's contract that the buffers are
// reusable on return; because the envelope takes its queue position at
// enqueue time, ordering with surrounding sends is untouched. The writer
// never waits on the receiver — the peer's read loop drains every
// connection into its mailbox — so neither does the sender.
func (t *tcpTransport) lend(dst int, e envelope, parts []Part, n int) error {
	if dst < 0 || dst >= len(t.addrs) {
		return fmt.Errorf("mpi: tcp world rank %d out of range", dst)
	}
	p, err := t.ep.dial(dst, t.addrs[dst])
	if err != nil {
		return err
	}
	b := borrows.Get().(*borrow)
	b.parts, b.n = parts, n
	e.zc = b
	if err = p.enqueue(e); err == nil {
		err = p.await(b)
	}
	b.parts = nil
	borrows.Put(b)
	return err
}

func (t *tcpTransport) close() error { return t.ep.Close() }

// dial returns the peer handle (socket, queue, writer) for dst,
// establishing it on first use and writing the preamble before it
// returns. Messages to self also travel through the loopback socket so
// the TCP path is exercised uniformly.
func (ep *TCPEndpoint) dial(dst int, addr string) (*tcpPeer, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return nil, ErrClosed
	}
	if p, ok := ep.peers[dst]; ok {
		return p, nil
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mpi: tcp dial rank %d (%s): %v: %w", dst, addr, err, ErrPeerLost)
	}
	ep.cfg.apply(conn)
	var pre [tcpPreamble]byte
	binary.LittleEndian.PutUint32(pre[:], uint32(ep.rank()))
	if _, err := conn.Write(pre[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("mpi: tcp dial rank %d (%s): %v: %w", dst, addr, err, ErrPeerLost)
	}
	p := &tcpPeer{
		ep:    ep,
		rank:  dst,
		conn:  conn,
		queue: make(chan envelope, ep.cfg.queueLen),
		dead:  make(chan struct{}),
	}
	ep.peers[dst] = p
	go p.writeLoop()
	return p, nil
}

// frameDecoder decodes wire-protocol-v2 frames from a connection and
// reassembles chunk streams. Payload buffers come from the staging arena
// and chunks are read straight into their final reassembly buffer, so
// the steady-state receive path performs no allocation and exactly one
// copy (kernel to arena). Not safe for concurrent use; one per
// connection.
type frameDecoder struct {
	sink       chunkSink
	maxFrame   uint64
	maxTotal   uint64
	maxStreams int
	streams    map[uint32]*inStream
	// src is the world rank whose frames the connection carries.
	src int
	// ep, when non-nil, is the owning endpoint — the decoder counts every
	// frame into its rank's telemetry and mirrors frame and chunk events
	// into its flight recorder when one is attached. Standalone decoders
	// (tests, fuzzing) leave it nil.
	ep *TCPEndpoint
	// hdr is the header/extension read scratch. A local array would
	// escape through the io.Reader interface and cost one allocation per
	// frame; as a decoder field it is allocated once per connection.
	hdr [tcpFrameHeader + tcpChunkExt + tcpSeqExt + tcpTraceExt]byte
}

// tel is the owning endpoint's rank's telemetry: nil when it has none,
// and for a standalone decoder.
func (d *frameDecoder) tel() *telemetry {
	if d.ep == nil {
		return nil
	}
	return d.ep.tel()
}

// recordFlight mirrors one decode-path event into the endpoint's flight
// recorder. Free when no endpoint or recorder is attached.
func (d *frameDecoder) recordFlight(ev obs.FlightEvent) {
	if t := d.tel(); t != nil && t.flight != nil {
		ev.Rank = int32(d.ep.rank())
		t.flight.Record(ev)
	}
}

// countIn counts one fully read frame into the rank's telemetry.
// readFrame calls it before the frame's message can reach the sink: a
// receiver that has the message in hand must already find it counted.
func (d *frameDecoder) countIn(wire int64, chunk bool) {
	if t := d.tel(); t != nil {
		t.tcpIn.Add(wire)
		if chunk {
			t.tcpChunksIn.Add(1)
		}
	}
}

// chunkSink is where decoded messages land; satisfied by *mailbox. put
// reports false for a replay of a sequenced message already delivered.
type chunkSink interface {
	put(e envelope) bool
	complete(p *chunkPending)
	removePending(p *chunkPending)
}

// inStream is a chunk stream being reassembled. The envelope (and the
// arena buffer its data field points to) is already pinned in the
// mailbox; fill tracks how much of it has arrived. A discard stream (a
// replay the mailbox rejected) still reassembles, to keep the wire in
// sync, and its buffer is recycled once complete.
type inStream struct {
	env     envelope
	fill    int
	discard bool
}

func newFrameDecoder(sink chunkSink, src int, maxFrame, maxTotal uint64, maxStreams int) *frameDecoder {
	return &frameDecoder{
		sink:       sink,
		src:        src,
		maxFrame:   maxFrame,
		maxTotal:   maxTotal,
		maxStreams: maxStreams,
		streams:    map[uint32]*inStream{},
	}
}

// readFrame consumes one frame, counting it on the owning endpoint and
// delivering completed messages to the sink. It returns the frame type.
// Errors wrapping errTCPProto mean the stream is desynchronized and the
// connection must be dropped.
func (d *frameDecoder) readFrame(r io.Reader) (typ byte, err error) {
	hdr := d.hdr[:tcpFrameHeader]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, err
	}
	typ = hdr[0]
	flags := hdr[1]
	ctx := binary.LittleEndian.Uint32(hdr[4:])
	src := int(binary.LittleEndian.Uint32(hdr[8:]))
	tag := int(int32(binary.LittleEndian.Uint32(hdr[12:])))
	n := int(binary.LittleEndian.Uint32(hdr[16:]))
	if flags&^tcpFlagTrace != 0 {
		return typ, fmt.Errorf("%w: unknown header flags %#x", errTCPProto, flags)
	}
	if src != d.src {
		return typ, fmt.Errorf("%w: frame from rank %d on rank %d's connection", errTCPProto, src, d.src)
	}
	traced := flags&tcpFlagTrace != 0

	switch typ {
	case frameMsg, frameMsgSeq:
		var seq uint64
		var tc TraceContext
		extLen := 0
		if typ == frameMsgSeq {
			extLen += tcpSeqExt
		}
		if traced {
			extLen += tcpTraceExt
		}
		if extLen > 0 {
			ext := d.hdr[tcpFrameHeader : tcpFrameHeader+extLen]
			if _, err := io.ReadFull(r, ext); err != nil {
				return typ, err
			}
			if typ == frameMsgSeq {
				seq = binary.LittleEndian.Uint64(ext)
				ext = ext[tcpSeqExt:]
			}
			if traced {
				tc = TraceContext{
					Exchange: binary.LittleEndian.Uint64(ext),
					Round:    binary.LittleEndian.Uint32(ext[8:]),
					Span:     binary.LittleEndian.Uint32(ext[12:]),
				}
			}
		}
		if uint64(n) > d.maxFrame {
			return typ, fmt.Errorf("%w: %d-byte frame exceeds limit", errTCPProto, n)
		}
		var data []byte
		if n > 0 {
			data = GetBuffer(n)
			if _, err := io.ReadFull(r, data); err != nil {
				PutBuffer(data)
				return typ, err
			}
		}
		d.countIn(int64(tcpFrameHeader+extLen+n), false)
		d.recordFlight(obs.FlightEvent{
			Kind: obs.FlightFrameIn, Peer: int32(src), Tag: int32(tag), Seq: seq,
			Round: int32(tc.Round), Exchange: tc.Exchange, Bytes: int64(n),
		})
		d.sink.put(envelope{ctx: ctx, src: src, tag: tag, seq: seq, data: data, tc: tc})
		return typ, nil

	case frameChunk, frameChunkSeq:
		extLen := tcpChunkExt
		if typ == frameChunkSeq {
			extLen += tcpSeqExt
		}
		traceOff := extLen
		if traced {
			extLen += tcpTraceExt
		}
		ext := d.hdr[tcpFrameHeader : tcpFrameHeader+extLen]
		if _, err := io.ReadFull(r, ext); err != nil {
			return typ, err
		}
		stream := binary.LittleEndian.Uint32(ext[0:])
		total := binary.LittleEndian.Uint64(ext[8:])
		var seq uint64
		if typ == frameChunkSeq {
			seq = binary.LittleEndian.Uint64(ext[tcpChunkExt:])
		}
		var tc TraceContext
		if traced {
			tc = TraceContext{
				Exchange: binary.LittleEndian.Uint64(ext[traceOff:]),
				Round:    binary.LittleEndian.Uint32(ext[traceOff+8:]),
				Span:     binary.LittleEndian.Uint32(ext[traceOff+12:]),
			}
		}
		if total == 0 || total > d.maxTotal {
			return typ, fmt.Errorf("%w: chunk stream of %d bytes out of range", errTCPProto, total)
		}
		st, ok := d.streams[stream]
		if !ok {
			if len(d.streams) >= d.maxStreams {
				return typ, fmt.Errorf("%w: more than %d concurrent chunk streams", errTCPProto, d.maxStreams)
			}
			st = &inStream{env: envelope{
				ctx: ctx, src: src, tag: tag, seq: seq,
				data: GetBuffer(int(total)),
				pend: &chunkPending{},
				tc:   tc,
			}}
			d.streams[stream] = st
			d.recordFlight(obs.FlightEvent{
				Kind: obs.FlightChunkStart, Peer: int32(src), Tag: int32(tag), Seq: seq,
				Round: int32(tc.Round), Exchange: tc.Exchange, Bytes: int64(total),
			})
			// Pin the message's matching position now; it becomes
			// matchable when the last chunk lands.
			st.discard = !d.sink.put(st.env)
		} else if st.env.ctx != ctx || st.env.src != src || st.env.tag != tag || uint64(len(st.env.data)) != total {
			return typ, fmt.Errorf("%w: chunk stream %d changed identity mid-flight", errTCPProto, stream)
		}
		if uint64(n) > d.maxFrame || uint64(st.fill)+uint64(n) > total {
			return typ, fmt.Errorf("%w: chunk overflows stream %d (%d+%d of %d)", errTCPProto, stream, st.fill, n, total)
		}
		if n > 0 {
			if _, err := io.ReadFull(r, st.env.data[st.fill:st.fill+n]); err != nil {
				return typ, err
			}
			st.fill += n
		}
		d.countIn(int64(tcpFrameHeader+extLen+n), true)
		if uint64(st.fill) == total {
			d.finishStream(st)
			delete(d.streams, stream)
		}
		return typ, nil

	default:
		return typ, fmt.Errorf("%w: unknown frame type %d", errTCPProto, typ)
	}
}

// finishStream commits a fully reassembled stream; a discarded replay is
// recycled instead.
func (d *frameDecoder) finishStream(st *inStream) {
	if st.discard {
		PutBuffer(st.env.data)
		return
	}
	d.recordFlight(obs.FlightEvent{
		Kind: obs.FlightChunkDone, Peer: int32(st.env.src), Tag: int32(st.env.tag), Seq: st.env.seq,
		Round: int32(st.env.tc.Round), Exchange: st.env.tc.Exchange, Bytes: int64(len(st.env.data)),
	})
	d.sink.complete(st.env.pend)
}

// cleanup releases the reassembly state of streams the connection left
// incomplete: pinned mailbox envelopes are unlinked (recycling their
// buffers), discard buffers go straight back to the arena.
func (d *frameDecoder) cleanup() {
	for id, st := range d.streams {
		if st.discard {
			PutBuffer(st.env.data)
		} else {
			d.sink.removePending(st.env.pend)
		}
		delete(d.streams, id)
	}
}

// tcpComms builds the world communicators of a world whose traffic
// crosses loopback TCP sockets, one endpoint a rank, rank r reporting to
// tels[r]: the socket twin of the in-process world, which shows DDR
// behaves the same when messages cross a real network stack.
func tcpComms(cfg tcpConfig, tels []*telemetry) ([]*Comm, error) {
	eps := make([]*TCPEndpoint, len(tels))
	addrs := make([]string, len(tels))
	for i := range eps {
		ep, err := newTCPEndpoint("127.0.0.1:0", cfg, tels[i])
		if err != nil {
			for _, prev := range eps[:i] {
				prev.Close()
			}
			return nil, err
		}
		eps[i] = ep
		addrs[i] = ep.Addr()
	}
	comms := make([]*Comm, len(eps))
	for rank, ep := range eps {
		comms[rank] = ep.join(rank, addrs)
	}
	return comms, nil
}
