package mpi

import (
	"context"
	"errors"
	"time"
)

// Posted receives: the mailbox's second queue. A receiver may announce a
// receive before its message exists; the mailbox then hands the arriving
// envelope to the post instead of queueing it, and the payload may land
// straight in the regions the receiver posted — ordered (datatype,
// buffer) parts, the shape SendTyped takes — in one of three ways: on a
// transport that shares the receiver's address space and delivers
// synchronously (bare inproc) the sender's typed send claims the post and
// copies its parts' runs into the posted parts' runs, so the message is
// never staged at all; on shm the receiving rank's ring consumer claims
// it and unpacks the ring record into the posted parts, so no arena
// payload exists. In both, mailbox.claim takes the post and
// mailbox.commit completes it; nothing outside the transports reaches
// them. The message may also come first. A shm record then waits in its
// ring until a receive from its sender opens or binds: post nudges the
// rank's consumer, which then lands it in the posts that fit (shm.go). An
// inproc message sent with Comm.Lend waits in the queue by reference to
// the sender's parts, and the post that takes it copies them straight in
// (envelope.repay).
//
// Matching is FIFO per (communicator, source, tag) on both sides: an
// arriving envelope completes the oldest open post that accepts it, a new
// post takes the oldest queued envelope it accepts, and the two rules
// together keep the invariant that no open post and queued envelope that
// match each other ever coexist. A chunk-streamed message pinned in the
// queue binds the post that matches it and completes it when its last
// chunk lands. Recv and Irecv are posts too, so the order holds across
// every receive on a (source, tag) stream.

// postState is where a Posted stands; guarded by the owning mailbox's
// mutex until the post is done, the receiver's alone afterwards.
type postState uint8

const (
	postIdle    postState = iota // not registered; free to Post
	postOpen                     // in mailbox.posts: matchable, claimable, revocable
	postBound                    // pinned to a chunk-reassembling envelope in the queue
	postClaimed                  // a sender or the shm consumer is writing into parts; not revocable
	postDone                     // completed or failed; one signal waits in done
)

// Posted is one posted receive. The zero value is ready for Comm.Post,
// and a Posted is reusable once Wait or Cancel returned, which lets a
// caller keep them in scratch and post without allocating. It must not
// be copied or moved while in flight: the mailbox holds its address.
type Posted struct {
	c     *Comm
	src   int    // world rank, or AnySource
	tag   int    // or AnyTag
	parts []Part // the regions a message may land in; nil offers none
	n     int    // parts' packed size
	state postState
	pend  *chunkPending // the reassembling envelope a bound post is pinned to

	env    envelope // the message that completed the post; data is nil when it landed
	landed bool
	err    error
	done   chan struct{} // capacity 1; signalled exactly once per completion
}

// accepts reports whether the post matches e's identity, honouring
// wildcards and ignoring whether e is ready.
func (p *Posted) accepts(e *envelope) bool {
	return e.is(p.c.ctx, p.src, p.tag)
}

// finish completes the post with e (or fails it with err) and wakes its
// waiter. Called with the mailbox lock held — the send cannot block, a
// post completes once and done holds one signal — or by Post on a post
// no other goroutine can reach yet, and the completer must not touch p
// afterwards: the receiver may re-post it at once.
func (p *Posted) finish(e envelope, err error) {
	p.env, p.err, p.state = e, err, postDone
	p.done <- struct{}{}
}

// Post registers a receive for a message matching (src, tag) — wildcards
// allowed — in the caller-owned p. parts are the regions the payload
// belongs in, in order, exactly as SendTyped takes a message: a nil T
// takes Buf whole. They are only an offer, taken for a message of exactly
// their packed size when a sender in this address space claims the post,
// the post takes a message queued lent (Comm.Lend, copied during Post) or
// the shm consumer delivers the message (Wait then reports landed); in
// every other case the post completes with an arena-backed payload
// exactly as Recv would return it, and nil parts offer nothing. The
// caller must end every post with Wait or Cancel, and must keep parts and
// the memory they name untouched until then.
func (c *Comm) Post(p *Posted, src, tag int, parts []Part) error {
	e, taken, err := c.post(p, src, tag, parts)
	if taken {
		if e.repay(p.parts, p.n) {
			c.counters.countLanded(p.n)
			p.landed = true
		}
		p.finish(e, nil)
	}
	return err
}

// post is Post, except that a complete queued envelope p accepts is
// taken and handed back with p left unregistered, for the caller to
// complete p with or, in Recv, to return without a wait.
func (c *Comm) post(p *Posted, src, tag int, parts []Part) (e envelope, taken bool, err error) {
	worldSrc, err := c.resolveSrc(src)
	if err != nil {
		return envelope{}, false, err
	}
	if p.done == nil {
		p.done = make(chan struct{}, 1)
	}
	m := c.box
	m.mu.Lock()
	defer m.mu.Unlock()
	if p.state != postIdle {
		return envelope{}, false, errors.New("mpi: Post on a receive still in flight")
	}
	p.c, p.src, p.tag, p.parts, p.n = c, worldSrc, tag, parts, partsSize(parts)
	for i := range m.queue {
		e := &m.queue[i]
		if !p.accepts(e) || (e.pend != nil && e.pend.post != nil) {
			continue
		}
		if e.pend == nil || e.pend.ready {
			return m.take(i), true, nil
		}
		m.bind(p, e.pend)
		nudge(m.wake)
		return envelope{}, false, nil
	}
	m.open(p, false)
	nudge(m.wake)
	return envelope{}, false, nil
}

// Wait blocks until the post completes and returns the payload — the
// caller's to recycle with PutBuffer — or landed=true when a sender or
// the shm consumer wrote it into the posted parts instead. A lost source or closed communicator
// fails it as it would fail Recv. When ctx (nil never cancels) is done
// first the post is cancelled and ctx.Err() returned; see Cancel.
func (p *Posted) Wait(ctx context.Context) (data []byte, landed bool, err error) {
	data, _, _, landed, err = p.wait(ctx)
	return data, landed, err
}

// recv waits for a post with no parts and returns its message the way
// Recv does: the payload, the sender's communicator rank and the tag.
func (p *Posted) recv(ctx context.Context) (data []byte, from, tag int, err error) {
	data, src, tag, _, err := p.wait(ctx)
	if err != nil {
		return nil, 0, 0, err
	}
	return data, p.c.localRank(src), tag, nil
}

// wait is Wait, also returning the sender's world rank and the tag.
func (p *Posted) wait(ctx context.Context) (data []byte, src, tag int, landed bool, err error) {
	start := p.c.recvStart()
	if ctx == nil {
		<-p.done
		return p.consume(start)
	}
	select {
	case <-p.done:
		return p.consume(start)
	case <-ctx.Done():
		p.Cancel()
		return nil, 0, 0, false, ctx.Err()
	}
}

// consume takes the result out of a done post whose signal the caller has
// received, counts the receive, and returns p to idle with every
// reference to the payload and the posted parts dropped. It hands back
// the envelope's fields rather than a copy of it: a receive's hot path.
func (p *Posted) consume(start time.Time) (data []byte, src, tag int, landed bool, err error) {
	e := &p.env
	data, src, tag, landed, err = e.data, e.src, e.tag, p.landed, p.err
	if err == nil {
		n := len(data)
		if landed {
			n = p.n
		}
		p.c.recvDone(e, n, start)
	}
	p.env, p.landed, p.err, p.parts, p.state = envelope{}, false, nil, nil, postIdle
	return data, src, tag, landed, err
}

// Cancel ends the receive whatever its state and leaves p idle. An open
// post is revoked: a message that arrives later stays matchable by any
// future receive. A post already claimed — by a sender, or by the shm
// consumer — cannot be revoked, so Cancel waits for the commit, bounded
// by that sender's one pack or the consumer's one copy, and the bytes
// stay where they landed; a completed post's payload is
// recycled. It reports whether a message was consumed. Once Cancel
// returns nobody writes into the posted parts any more.
func (p *Posted) Cancel() bool {
	if p.c == nil {
		return false
	}
	m := p.c.box
	m.mu.Lock()
	switch p.state {
	case postClaimed, postDone:
		m.mu.Unlock()
		<-p.done
		data, _, _, _, err := p.consume(time.Time{})
		PutBuffer(data)
		return err == nil
	case postOpen:
		for i, q := range m.posts {
			if q == p {
				m.unpost(i)
				break
			}
		}
	case postBound:
		m.unbind(p)
	}
	p.parts, p.state = nil, postIdle
	m.mu.Unlock()
	return false
}

// claim takes the oldest open post accepting id if its parts pack to
// exactly n bytes. The oldest one decides: skipping it for a later post
// that fits would break FIFO matching. The claimer — an in-process
// sender's typed send or the shm consumer delivering id — writes the
// parts and then commits. When no open post accepts id and l is set, id
// is queued instead, lent on l, its payload the n packed bytes of parts,
// and lent reports it: under the same lock, so no open post that accepts
// it can appear in between.
func (m *mailbox) claim(id envelope, n int, parts []Part, l *Loan) (p *Posted, lent bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, p := range m.posts {
		if !p.accepts(&id) {
			continue
		}
		if p.n != n {
			return nil, false
		}
		m.unpost(i)
		p.env, p.state = id, postClaimed
		return p, false
	}
	if l == nil || m.closed {
		return nil, false
	}
	l.box, l.parts, l.n, l.taken = m, parts, n, false
	id.lent = l
	m.queue = append(m.queue, id)
	m.addDepth(1)
	return nil, true
}

// repay turns a lent envelope a receive took from the queue into an
// ordinary one: its bytes are copied straight into dst when dst packs to
// exactly their size n — landed reports it, and data stays nil — and into
// an arena payload otherwise, exactly as Recv would return it. Then the
// sender's Settle may go on. Envelopes that were not lent are untouched.
func (e *envelope) repay(dst []Part, n int) (landed bool) {
	l := e.lent
	if l == nil {
		return false
	}
	if landed = n == l.n; landed {
		CopyParts(dst, l.parts)
	} else {
		e.data = GetBuffer(l.n)
		packParts(e.data, l.parts)
	}
	e.lent = nil
	l.done <- struct{}{}
	return landed
}

// land writes a claimed post's message — the packed bytes of src, or
// data when src is nil — into its parts.
func (p *Posted) land(data []byte, src []Part) {
	if src == nil {
		unpackParts(data, p.parts)
	} else {
		CopyParts(p.parts, src)
	}
}

// commit completes a claimed post whose parts are written, as landed,
// and counts the landing on the receiving rank — the side whose Wait
// reports it, whichever side wrote the parts.
func (m *mailbox) commit(p *Posted, tc TraceContext) {
	p.c.counters.countLanded(p.n)
	m.mu.Lock()
	p.landed = true
	p.env.tc = tc
	p.finish(p.env, nil)
	m.mu.Unlock()
}

// open files p as an open post — at the front when it is older than
// every other (a bound post whose stream died) — unless the receive can
// no longer be satisfied, which fails it at once.
func (m *mailbox) open(p *Posted, front bool) {
	if err := m.failure(p.src, p.c.group, p.c.group[p.c.rank]); err != nil {
		p.finish(envelope{}, err)
		return
	}
	p.state = postOpen
	m.posts = append(m.posts, p)
	if front {
		copy(m.posts[1:], m.posts)
		m.posts[0] = p
	}
}

// unpost unlinks the open post at index i, leaving no stale pointer
// behind the slice's end.
func (m *mailbox) unpost(i int) {
	last := len(m.posts) - 1
	copy(m.posts[i:], m.posts[i+1:])
	m.posts[last] = nil
	m.posts = m.posts[:last]
}

// bind pins p to the still-reassembling envelope pd belongs to; complete
// finishes it.
func (m *mailbox) bind(p *Posted, pd *chunkPending) {
	p.state, p.pend, pd.post = postBound, pd, p
}

// unbind releases p's pinned envelope back to the queue and, to keep the
// no-matching-pair invariant, offers it to the next open post.
func (m *mailbox) unbind(p *Posted) {
	pd := p.pend
	p.pend, pd.post = nil, nil
	for i := range m.queue {
		if m.queue[i].pend != pd {
			continue
		}
		for j, q := range m.posts {
			if q.accepts(&m.queue[i]) {
				m.unpost(j)
				m.bind(q, pd)
				break
			}
		}
		return
	}
}

// deliver hands an arriving envelope to the oldest open post that accepts
// it, or queues it. A chunk stream's first frame pins its place in the
// queue either way and binds the post until complete.
func (m *mailbox) deliver(e envelope) {
	for i, p := range m.posts {
		if !p.accepts(&e) {
			continue
		}
		m.unpost(i)
		if e.pend == nil {
			p.finish(e, nil)
			return
		}
		m.bind(p, e.pend)
		break
	}
	m.queue = append(m.queue, e)
	m.addDepth(1)
}

// failPosts fails every open post that can no longer be satisfied: all of
// them once the mailbox closed, those waiting on a lost source otherwise.
func (m *mailbox) failPosts() {
	kept := m.posts[:0]
	for _, p := range m.posts {
		if err := m.failure(p.src, p.c.group, p.c.group[p.c.rank]); err != nil {
			p.finish(envelope{}, err)
		} else {
			kept = append(kept, p)
		}
	}
	clear(m.posts[len(kept):])
	m.posts = kept
}
