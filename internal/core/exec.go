package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"ddr/internal/datatype"
	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/trace"
)

// The exchange executor. Every redistribution — rounds, memory-bounded,
// an elastic resize among them — is an ordered list of steps (after
// Rink et al., "Memory-efficient array redistribution through portable
// collective communication"), each a set of messages moved under one
// staging footprint, and this file is the only code that runs one: it
// owns the transport calls, deadline and lost-peer handling, trace
// stamps, round timings and abort cleanup. The backends are
// compilers that emit []step: the plan's round schedule (mapping.go) and
// its bounded rewrite (bounded.go). The paper's round, one MPI_Alltoallw,
// is one step of the round schedule run at depth 1.
//
// A serial exchange runs each step as issue → wait → retire, so the wire
// time of every step is pure blocking. With pipeline depth k ≥ 2 the same
// three actions interleave across a ring of staging slots:
//
//	issue(0) … issue(k-1)
//	wait(r-k); issue(r); retire(r-k)     for r = k … n-1
//	wait; retire                         for the last k steps, in order
//
// so step r's pack and send posting happen while steps r-k..r-1 are on
// the wire, and step r-k's unpack runs after step r's sends are posted —
// the unpack itself is hidden behind the youngest step's wire time.
// Because step r-k's state must survive across issue(r) — its waited
// payloads retire only after r's sends are posted — the ring holds k+1
// slots: k steps in flight plus the one retiring behind the current
// issue. Steps r and r-k land in distinct slots (k and 0 differ mod k+1),
// so issue(r) can reset its slot without touching the batch wait(r-k)
// just brought in hand. Depth 1 has nothing to hide a retire behind, so
// its ring is a single slot and the same state machine degenerates to
// issue; wait; retire. Steps retire strictly in order at every depth,
// which keeps the timings slice and partial-failure bookkeeping identical
// in shape across depths.
//
// One receive path. run posts every receive of the exchange in the
// rank's mailbox on entry (mpi.Comm.Post, one mpi.Posted per receive
// message, in step order) and wait blocks on the step's posts — there is
// no Recv call and no per-receive request or goroutine, cancellable or
// not. A post names (peer, tag) and the message's segs as typed parts of
// the need buffers, the shape a send takes: a contiguous seg as its byte
// span, a strided one as its datatype.
//
// One send call. issue hands every message to mpi.Comm.Lend as its segs,
// parts of the owned buffers in the same shape, on the message's own
// mpi.Loan, and the transport, and only the transport, decides where the
// gather happens and how the post completes:
//
//   - Landed in one copy on bare inproc, the one transport that shares the
//     receiver's address space and delivers synchronously. When the
//     peer's oldest open post for the message packs to exactly its length,
//     the send claims it, copies the owned rows straight into the peer's
//     need rows and completes the post. When the peer has not posted yet,
//     the send queues the message lent, at its FIFO position in the peer's
//     mailbox, by reference to the owned rows, and the peer's post copies
//     them straight in when it takes it. Either way: strided or not on
//     either side, no staging, nothing to unpack.
//   - Landed by the ring consumer. On shm the segs are packed straight
//     from the owned buffers into the ring record, and the receiving
//     rank's ring consumer unpacks the record into the posted parts when
//     the post is open and of exactly its length: one copy per side,
//     nothing to unpack. A record that arrives before its post waits in
//     the ring until this rank posts a receive from its sender, so it
//     lands however far the ranks are out of step, unless its ring runs
//     short of space first. Chunk-streamed and fault-injected messages
//     are eager.
//   - Eager. Otherwise tcp writes the segs' rows of a message from 64 KiB
//     up straight from the owned buffer into its vectored write, and
//     everything else (a smaller tcp message, a fault-injected world, a
//     chunk stream, a deadline-bounded exchange on tcp, an inproc message
//     settled before its peer posted) is packed into an arena wire handed
//     over by ownership. The arriving envelope completes the oldest
//     matching post, or waits in the mailbox queue for the post to come
//     and take it, and wait places its contiguous segs and batches its
//     strided ones for retire to unpack.
//
// The executor stages nothing on the send side. wait sees both kinds of
// landing alike — the post reports landed and there is nothing to place —
// and counts them in ddr_landed_messages_total on the receiving rank.
//
// Posts, envelopes and claims match FIFO per (communicator, source, tag),
// so tags may repeat across steps and across back-to-back exchanges of
// different descriptors: any post a sender finds open at a peer stands
// for a message it has not sent yet, because every earlier one was
// delivered — synchronously, which is what restricts send-side landing to
// bare inproc — and took the posts before it. A post for a later step may
// land before this rank has issued that step; the regions of distinct
// messages are disjoint — the ownership rule (mapping.go) hands every
// need cell to exactly one message or self move, even where owned chunks
// overlap — so nothing it writes is touched in between.
//
// Deadlock freedom at any depth mix: a rank only blocks in wait(j) after
// it has issued steps 0..j+k-1 — in particular its own step-j sends are
// already posted — and a sender never waits for a receiver that has not
// started: a landing claim either hits at once or misses at once, and a
// send is buffered or drained without the receiver's help on every
// transport. Inproc appends to the destination mailbox, lent or packed,
// and run's settle waits only for a copy a receiving post has already
// begun on the receiver's own goroutine; shm writes the ring, where a
// record may wait for its receive, but a producer short of space flags
// the ring and the receiver's consumer goroutine then empties it into the
// mailbox, whatever the receiver posted; a tcp send that lends the owned buffer
// blocks, but only on its connection's writer, and the writer only on the
// socket, which the peer's read loop drains into the mailbox
// unconditionally. So every posted send is eventually delivered, and
// every wait is satisfiable as long as each rank's steps are consecutive
// runs of one global order of the world's messages — the round order, or
// the bounded compiler's key order (bounded.go), which is what lets peers
// run at different effective depths and pack their steps differently:
// the blocked receive earliest in that order would have a sender blocked
// on an earlier one. Landing is an optimisation on top of that argument,
// never a rendezvous.
//
// Leaving run, on every exit — success, hard error, caller's cancel,
// deadline, lost peer — no post of this exchange stays behind: open ones
// are revoked (a message that arrives later stays in the mailbox queue,
// matchable by whoever receives next), completed ones are recycled, and
// a post a sender has claimed is waited for, which is bounded by that
// sender's copy of one message. Every send of it is settled: a message
// still queued lent is packed where it waits into a metered arena wire,
// and one a receiving post has started copying is waited for, bounded by
// that one copy. Nobody writes into the caller's need buffers, or reads
// its owned ones, after its call returned.
//
// Partial failure with several steps in flight: a peer lost at step j is
// skipped for every subsequent send and wait (its posts fail with the
// loss or are revoked on the way out), in-flight receives from it degrade
// as their waits fail, and when the exchange deadline expires the
// not-yet-issued steps' sources are marked lost while the issued window
// drains.
//
// Buffer lease lifecycle (the memory-budget interaction): when a budget
// is set, all staging is metered. A send that needs an arena wire draws
// it through the exchange's meter inside Lend, or inside the settle of a
// message still lent, which release the charge as they hand the wire to
// the transport — before the next message is packed — so at most one
// message's wire is charged at a time; from then on the payload is
// covered by the receiving rank's lease. A message landed on inproc, lent
// to the tcp writer or packed into a shm record takes no wire at all, and
// settle runs after every step retired, when no lease is open. Step r's
// receive payload classes are leased at issue time — conservatively:
// whether or not a message later lands and needs no payload — and
// released when the step retires, so the meter's high-water mark bounds
// the whole in-flight window: k
// receive leases plus one send wire while packing, or k+1 leases (and no
// wire) in the instant between issue(r) and retire(r-k). Both are at most
// k+1 per-step footprints, which is exactly what pipelineDepth clamps to
// the budget; at depth 1 a send wire and the single lease never coexist,
// so one footprint suffices.

// seg is one box-shaped region of a message, addressed in a local buffer.
// Its subarray is held by value, so a plan's seg array holds every one of
// them; t.Sub is the region in global coordinates — on a recv, what stays
// unfilled if the peer is lost.
type seg struct {
	buf  int               // index into the exchange's source (send) or destination (recv) buffers
	t    datatype.Subarray // packs from / scatters into that buffer
	span contigSpan        // t's contiguous byte range there, detected at compile time
}

// init addresses region inside base — the box whose data buffer buf
// holds — detecting its contiguity span once, at compile time.
func (sg *seg) init(elemSize int, base grid.Box, buf int, region grid.Box) error {
	if err := sg.t.Init(elemSize, base, region); err != nil {
		return err
	}
	off, n, ok := sg.t.ContiguousSpan()
	sg.buf, sg.span = buf, contigSpan{off: off, n: n, ok: ok}
	return nil
}

// message is one wire transfer: its segs' packed bytes concatenated in
// order. Both ends compile the same seg order, so no framing is needed.
type message struct {
	peer, tag int
	bytes     int // packed size of all segs
	segs      []seg
	eager     bool // a receive posted without parts (testhook.go): it never lands
}

// selfMove is a region whose source and destination are both this rank.
type selfMove struct{ src, dst seg }

// step is the executor's unit of work: everything moved under one staging
// footprint. Step lists are immutable once compiled and replayed by every
// exchange on their plan.
type step struct {
	selfs []selfMove
	sends []message
	recvs []message
}

// slot is one ring entry: the in-flight state of one issued step, alive
// from issue until retire. All slices are reused across steps and
// exchanges, so steady state allocates nothing.
type slot struct {
	step  int
	bytes int64 // wire bytes this rank sent in the step

	start   time.Time     // issue began
	issued  time.Time     // sends posted
	packT   time.Duration // issue: pack through posting sends
	blocked time.Duration // wait: time spent blocked on the transport
	wire    time.Duration // sends posted → last payload in hand

	lease mpi.StagingLease // receive-class reservation (budgeted runs)
	post0 int              // index in executor.posts of the step's first receive
	datas [][]byte         // held payloads pending the unpack batch
	jobs  []exchJob        // the step's unpack batch
	early bool             // payloads recycled early by PerturbPipelineForTest
}

// executor holds what outlives one exchange: the staging meter, the last
// run's timings, and the reusable scratch. Not safe for concurrent use.
type executor struct {
	// meter is the live staging accountant of budgeted exchanges: every
	// send wire, local staging buffer and receive lease is charged against
	// it, so its high-water mark is the ground truth the budget tests
	// assert against.
	meter   mpi.StagingMeter
	metered bool
	perturb bool // PerturbPipelineForTest: recycle held payloads early
	staged  bool // tests only: take no contiguous span, land nothing, move every region by its datatype

	timings []RoundTiming

	// clock is the reading taken as the last action ended. Actions run back
	// to back, so the next one starts there instead of reading it again —
	// on hosts without a fast clock source time.Now dominated short steps.
	clock time.Time

	// sendParts holds every send's parts and recvParts every post's, both
	// sized once per run and cleared as run returns: they reference the
	// caller's memory, and a surviving descriptor must not keep a dead
	// world's buffers reachable. loans holds one mpi.Loan per send message
	// in issue order, lent of them used so far: a message may wait in its
	// receiver's mailbox by reference to its parts until run settles it.
	sendParts, recvParts []mpi.Part
	loans                []mpi.Loan
	lent                 int
	slots                []slot

	// posts holds the exchange's posted receives, one per receive message
	// in step order; the mailbox keeps their addresses and they keep their
	// parts, so both are sized once per run. open counts those not yet
	// back from Wait, which is what the way out has to sweep.
	posts []mpi.Posted
	open  int
	next  int // posts index of the next step to issue
}

// exchange is one run's environment: who to talk to and how failure and
// observation are handled. The data buffers travel beside it as plain
// parameters — own for send segs, need for recv segs — because escape
// analysis is field-insensitive: next to a context that flows to the
// transport, a caller's buffer list would be forced onto the heap.
type exchange struct {
	ctx      context.Context // nil selects the uncancellable fast path
	c        *mpi.Comm
	o        *exchObs
	ps       *partialState // nil unless a deadline arms graceful degradation
	deadline time.Duration
	id       uint64 // trace exchange ID
	traced   bool   // stamp the step onto the communicator's trace context
}

// run executes steps at depth k (≥ 1, ≤ len(steps)) and records one
// RoundTiming per retired step. A hard error abandons the in-flight
// window; a degraded exchange returns nil with the losses in ex.ps.
func (x *executor) run(ex *exchange, steps []step, k int, own, need [][]byte) error {
	x.timings = x.timings[:0]
	if x.metered {
		x.meter.ResetPeak()
	}
	ring := k + 1
	if k == 1 {
		ring = 1
	}
	if cap(x.slots) < ring {
		x.slots = make([]slot, ring)
	}
	x.slots = x.slots[:ring]

	err := x.post(ex, steps, need)
	if err == nil {
		err = x.drive(ex, steps, k, ring, own, need)
	}
	if err != nil {
		// Release whatever the ring still holds (a failed issue has already
		// let go of its staging). (An explicit loop rather than a defer — a
		// deferred closure over the ring escapes and would cost the steady
		// state an allocation per exchange.)
		for i := range x.slots {
			x.slots[i].release()
		}
	}
	if x.open > 0 {
		// Posts nobody waited for: a failed or expired exchange's, a lost
		// peer's. Cancel revokes, recycles, or waits out a claim.
		for i := range x.posts {
			x.posts[i].Cancel()
		}
		x.open = 0
	}
	// Sends whose receiver has not taken them yet are packed where they
	// wait; one a receiver is copying is waited for.
	for i := range x.loans[:x.lent] {
		x.loans[i].Settle()
	}
	clear(x.sendParts)
	clear(x.recvParts)
	return err
}

// post sizes the exchange's send scratch and posts every receive of it as
// its segs' parts of the need buffers.
func (x *executor) post(ex *exchange, steps []step, need [][]byte) error {
	total, segs, sends, sendSegs := 0, 0, 0, 0
	for i := range steps {
		for j := range steps[i].recvs {
			segs += len(steps[i].recvs[j].segs)
		}
		for j := range steps[i].sends {
			sendSegs += len(steps[i].sends[j].segs)
		}
		total += len(steps[i].recvs)
		sends += len(steps[i].sends)
	}
	if cap(x.posts) < total {
		x.posts = make([]mpi.Posted, total)
	}
	if cap(x.recvParts) < segs {
		x.recvParts = make([]mpi.Part, segs)
	}
	if cap(x.loans) < sends {
		x.loans = make([]mpi.Loan, sends)
	}
	if cap(x.sendParts) < sendSegs {
		x.sendParts = make([]mpi.Part, sendSegs)
	}
	x.posts, x.recvParts = x.posts[:total], x.recvParts[:0]
	x.loans, x.sendParts = x.loans[:sends], x.sendParts[:0]
	x.open, x.next, x.lent = 0, 0, 0
	for i := range steps {
		for j := range steps[i].recvs {
			m, at := &steps[i].recvs[j], len(x.recvParts)
			for k := 0; k < len(m.segs) && !m.eager && !x.staged; k++ {
				x.recvParts = append(x.recvParts, x.part(&m.segs[k], need))
			}
			if err := ex.c.Post(&x.posts[x.open], m.peer, m.tag, x.recvParts[at:]); err != nil {
				return err
			}
			x.open++
		}
	}
	return nil
}

// part is sg as one part of a typed message over bufs: its byte span when
// it is contiguous there, its datatype otherwise.
func (x *executor) part(sg *seg, bufs [][]byte) mpi.Part {
	if !x.staged && sg.span.ok {
		return mpi.Part{Buf: bufs[sg.buf][sg.span.off : sg.span.off+sg.span.n]}
	}
	return mpi.Part{T: &sg.t, Buf: bufs[sg.buf]}
}

// drive is run's state machine over the ring.
func (x *executor) drive(ex *exchange, steps []step, k, ring int, own, need [][]byte) error {
	n := len(steps)
	issued, waited, retired := 0, 0, 0
	x.clock = time.Now()
	for retired < n {
		var err error
		switch {
		case issued < n && issued-retired < ring && issued-waited < k:
			if ex.ctx != nil && ex.ctx.Err() != nil {
				// Read once: a deadline firing between two reads would
				// abort an exchange that is to degrade.
				if ex.expired(steps, issued) {
					n = issued
					continue
				}
				err = ex.ctx.Err() // the caller's own cancellation aborts
				break
			}
			err = x.issue(ex, &steps[issued], issued, &x.slots[issued%ring], own, need)
			issued++
		case waited > retired:
			x.retire(ex, &x.slots[retired%ring])
			retired++
		default:
			err = x.wait(ex, &steps[waited], &x.slots[waited%ring], need, ring > 1)
			waited++
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// expired reports whether the done exchange context, with step next
// still unissued, means the exchange deadline is spent. If so it gives up
// on every source of the unissued steps — the issued window drains,
// degrading peer by peer as its waits fail — so the call reports what
// landed rather than abort with the buffer state unknown. A cancellation
// of the caller's own context is not expiry.
func (ex *exchange) expired(steps []step, next int) bool {
	ps := ex.ps
	if ps == nil || (ps.uctx != nil && ps.uctx.Err() != nil) {
		return false
	}
	for i := next; i < len(steps); i++ {
		for j := range steps[i].recvs {
			ps.markLost(steps[i].recvs[j].peer, i)
		}
	}
	if ps.cause == nil {
		ps.cause = fmt.Errorf("core: exchange deadline %v exhausted after step %d: %w",
			ex.deadline, next, mpi.ErrExchangeTimeout)
	}
	return true
}

// selfMove places one local region without touching the transport or
// staging anything, as an in-process send lands a message: one copy,
// whichever side is strided (mpi.CopyParts).
func (x *executor) selfMove(sf *selfMove, own, need [][]byte) {
	parts := [2]mpi.Part{x.part(&sf.dst, need), x.part(&sf.src, own)}
	mpi.CopyParts(parts[:1], parts[1:])
}

// issue packs and posts one step into slot s: local moves, typed sends,
// and the receive-class lease.
func (x *executor) issue(ex *exchange, st *step, idx int, s *slot, own, need [][]byte) error {
	s.start = x.clock
	if ex.traced {
		ex.c.SetTraceContext(mpi.TraceContext{Exchange: ex.id, Round: uint32(idx)})
	}
	for i := range st.selfs {
		x.selfMove(&st.selfs[i], own, need)
	}

	// Every message is one typed send; the transport decides where its
	// bytes are gathered. Nothing is sent to a peer given up on, and
	// nothing more after a hard error.
	s.bytes = 0
	for i := range st.sends {
		m := &st.sends[i]
		s.bytes += int64(m.bytes)
		if ex.ps.isLost(m.peer) {
			continue
		}
		if err := x.send(ex, m, own); err != nil && !ex.ps.degrade(m.peer, idx, err) {
			return err
		}
	}
	s.post0 = x.next
	x.next += len(st.recvs)

	s.step = idx
	s.datas, s.jobs = s.datas[:0], s.jobs[:0]
	s.early = false
	if x.metered {
		total := 0
		for i := range st.recvs {
			total += mpi.BufferClassSize(st.recvs[i].bytes)
		}
		s.lease = x.meter.Lease(total)
	}
	s.issued = time.Now()
	x.clock = s.issued
	s.packT = s.issued.Sub(s.start)
	return nil
}

// send hands m to the transport as one typed message over the owned
// buffers — a contiguous seg as its byte span, a strided one as its
// datatype — on the message's own loan, and observes the call as m's
// pack: wherever the transport writes the bytes (the peer's posted
// regions, its socket, its ring, an arena wire), that is where they are
// gathered; a message lent to a peer that has not posted yet is gathered
// by the peer's post, or by run's settle.
func (x *executor) send(ex *exchange, m *message, own [][]byte) error {
	at := len(x.sendParts)
	for j := range m.segs {
		x.sendParts = append(x.sendParts, x.part(&m.segs[j], own))
	}
	var start time.Time
	if ex.o.on() {
		start = time.Now()
	}
	var meter *mpi.StagingMeter // a budgeted exchange's, nil when unmetered
	if x.metered {
		meter = &x.meter
	}
	l := &x.loans[x.lent]
	x.lent++
	err := ex.c.Lend(l, ex.ctx, m.peer, m.tag, x.sendParts[at:len(x.sendParts):len(x.sendParts)], meter)
	if err == nil && ex.o.on() {
		ex.o.observeCopy(start, m.bytes, m.peer, false)
	}
	return err
}

// wait blocks on the posts of slot s's step until each message has landed
// or its payload is in hand, placing an eager payload's contiguous segs
// immediately and batching its strided ones into the slot's unpack jobs.
// It is the only blocking point of the executor; the time spent here is
// the step's unhidden wire time. windowed says another step may be issued
// before this one retires.
func (x *executor) wait(ex *exchange, st *step, s *slot, need [][]byte, windowed bool) error {
	waitStart := x.clock
	for i := range st.recvs {
		m := &st.recvs[i]
		if ex.ps.isLost(m.peer) {
			// Nothing is coming: a send to the peer failed or it was given
			// up on, perhaps at a later step issued ahead of this one, so
			// the report must reach back here. The post is swept on exit.
			ex.ps.markLost(m.peer, s.step)
			continue
		}
		var peerStart time.Time
		if ex.o.tracing() {
			peerStart = time.Now()
		}
		data, landed, err := x.posts[s.post0+i].Wait(ex.ctx)
		x.open--
		if err != nil {
			if ex.ps.degrade(m.peer, s.step, err) {
				continue
			}
			return err
		}
		if ex.o.tracing() {
			ex.o.rec.StampSpan(trace.Event{Rank: ex.o.rank, Name: fmt.Sprintf("wait<-%d", m.peer),
				Bytes: int64(m.bytes), Exchange: ex.id, Round: int32(s.step), Peer: int32(m.peer)},
				peerStart, time.Now())
		}
		if landed {
			if ex.o.on() {
				ex.o.landed.Add(1)
			}
			continue
		}
		if len(data) != m.bytes {
			mpi.PutBuffer(data)
			return fmt.Errorf("core: expected %d bytes from rank %d (tag %d), got %d", m.bytes, m.peer, m.tag, len(data))
		}
		held, off := false, 0
		for j := range m.segs {
			p, n := x.part(&m.segs[j], need), m.segs[j].t.PackedSize()
			job := exchJob{t: p.T, local: p.Buf, wire: data[off : off+n], peer: m.peer}
			if p.T == nil {
				job.do(ex.o)
			} else {
				s.jobs = append(s.jobs, job)
				held = true
			}
			off += n
		}
		// Every payload a receive hands out is arena-backed, whatever the
		// transport, so the consumer returns it — at once when its bytes
		// have all landed, after the unpack batch otherwise.
		if held {
			s.datas = append(s.datas, data)
		} else {
			mpi.PutBuffer(data)
		}
	}
	now := time.Now()
	x.clock = now
	s.blocked = now.Sub(waitStart)
	s.wire = now.Sub(s.issued)
	if x.perturb && windowed {
		// Planted bug (PerturbPipelineForTest): recycle the step's held
		// payloads one iteration early. The next issue's staging draws the
		// same arena buffers back out and packs over them before this
		// step's unpack batch has scattered them.
		for _, data := range s.datas {
			mpi.PutBuffer(data)
		}
		s.early = true
	}
	return nil
}

// retire scatters slot s's batched payloads, releases them and the slot's
// lease, and records the step's timing.
func (x *executor) retire(ex *exchange, s *slot) {
	for i := range s.jobs {
		s.jobs[i].do(ex.o)
	}
	s.release()
	end := time.Now()
	unpackT := end.Sub(x.clock)
	x.clock = end
	dur := s.packT + s.blocked + unpackT
	x.timings = append(x.timings, RoundTiming{
		Round: s.step, Duration: dur, Pack: s.packT, Wire: s.wire, Unpack: unpackT, WireBytes: s.bytes,
	})
	if o := ex.o; o.on() {
		o.roundLat.Observe(dur.Seconds())
		o.exchangeBytes.Add(s.bytes)
		if o.tracing() {
			o.rec.StampSpan(trace.Event{Rank: o.rank, Name: fmt.Sprintf("round-%d", s.step),
				Bytes: s.bytes, Exchange: ex.id, Round: int32(s.step), Peer: -1}, s.start, end)
		}
	}
}

// exchJob is one unpack of an eager receive seg (tcp, a fault injector,
// an inproc message settled before its post): a strided one is batched
// in its slot by wait and run by retire; a contiguous one (nil t) wait
// runs at once, one memmove.
// Like every copy of the exchange it runs on the rank's own goroutine: a
// world's ranks are goroutines of this process, and once they cover the
// cores — every exchange of the benchmark of record — a pool forked per
// step buys no parallelism and costs a goroutine set and a WaitGroup per
// step.
type exchJob struct {
	t     datatype.Type
	local []byte
	wire  []byte
	peer  int // trace label only
}

// do scatters the job's wire into its local array, observed as an unpack
// when observation is attached.
func (j *exchJob) do(o *exchObs) {
	var start time.Time
	if o.on() {
		start = time.Now()
	}
	if j.t == nil {
		copy(j.local, j.wire)
	} else {
		j.t.Unpack(j.wire, j.local)
	}
	if o.on() {
		o.observeCopy(start, len(j.wire), j.peer, true)
	}
}

// observeCopy records one finished pack or unpack of n bytes that began
// at start: the per-peer span when tracing, and the latency.
func (o *exchObs) observeCopy(start time.Time, n, peer int, unpack bool) {
	now := time.Now()
	if o.rec != nil {
		name := fmt.Sprintf("pack->%d", peer)
		if unpack {
			name = fmt.Sprintf("unpack<-%d", peer)
		}
		o.rec.AddSpan(o.rank, name, start, now, int64(n))
	}
	if unpack {
		o.unpackLat.Observe(now.Sub(start).Seconds())
	} else {
		o.packLat.Observe(now.Sub(start).Seconds())
	}
}

// release returns the slot's held payloads to the arena and closes its
// lease. Idempotent, so abort cleanup may sweep the whole ring.
func (s *slot) release() {
	if !s.early {
		for _, data := range s.datas {
			mpi.PutBuffer(data)
		}
	}
	s.datas, s.jobs = s.datas[:0], s.jobs[:0]
	s.lease.Close()
}

// partialState tracks graceful degradation during one deadline-bounded
// exchange: which peers have been given up on, from which step onward,
// and why. It is nil when no deadline is set, keeping the fail-fast paths
// untouched.
type partialState struct {
	uctx  context.Context // caller's context; its cancellation still aborts
	lost  map[int]int     // peer → earliest step whose data is compromised
	cause error
}

// beginExchange normalizes the caller's context (one that can never be
// cancelled selects the nil fast path; an already-cancelled one fails
// fast) and, when deadline > 0, bounds the whole exchange and arms
// graceful degradation: peer-loss and timeout failures park the peer on
// the lost list instead of aborting, and the call ends with a
// *PartialError describing what is missing.
func beginExchange(ctx context.Context, deadline time.Duration) (context.Context, *partialState, context.CancelFunc, error) {
	if ctx != nil {
		if ctx.Done() == nil {
			ctx = nil
		} else if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
	}
	if deadline <= 0 {
		return ctx, nil, func() {}, nil
	}
	ps := &partialState{uctx: ctx, lost: make(map[int]int)}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	return ctx, ps, cancel, nil
}

// markLost records that peer's data is missing from step onward.
func (ps *partialState) markLost(peer, step int) {
	if s0, ok := ps.lost[peer]; !ok || step < s0 {
		ps.lost[peer] = step
	}
}

// isLost reports whether peer has already been given up on.
func (ps *partialState) isLost(peer int) bool {
	if ps == nil {
		return false
	}
	_, ok := ps.lost[peer]
	return ok
}

// degrade decides whether err from a step's operation against peer is a
// peer-loss condition the exchange should absorb (recording the peer as
// lost) rather than abort on. A cancellation of the caller's own context
// always aborts.
func (ps *partialState) degrade(peer, step int, err error) bool {
	if ps == nil {
		return false
	}
	if ps.uctx != nil && ps.uctx.Err() != nil {
		return false
	}
	if !mpi.IsPeerLoss(err) && !errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	ps.markLost(peer, step)
	if ps.cause == nil {
		ps.cause = err
	}
	return true
}

// partialError builds the caller-facing completion report: the sorted
// lost-peer set plus the destination regions whose producing peer was
// lost. A peer lost at step s0 is missing exactly the regions of its
// receive segs scheduled at s0 or later (its earlier steps landed before
// the loss); those were never unpacked, so their cells hold whatever the
// destination held before.
func partialError(ps *partialState, steps []step) error {
	if ps == nil || len(ps.lost) == 0 {
		return nil
	}
	lost := make([]int, 0, len(ps.lost))
	for r := range ps.lost {
		lost = append(lost, r)
	}
	sort.Ints(lost)
	var missing []grid.Box
	for _, peer := range lost {
		for i := ps.lost[peer]; i < len(steps); i++ {
			for _, m := range steps[i].recvs {
				if m.peer != peer {
					continue
				}
				for j := range m.segs {
					missing = append(missing, m.segs[j].t.Sub)
				}
			}
		}
	}
	return &PartialError{LostPeers: lost, Missing: missing, Cause: ps.cause}
}
