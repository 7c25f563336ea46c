package mpi

import "context"

// Request is a handle for a non-blocking operation. Wait blocks until the
// operation completes and returns its outcome. A Request must be waited
// on exactly once.
type Request struct {
	recv Posted // the posted receive; unused by sends, which complete in Isend
	err  error  // a send's delivery status, or why a receive could not be posted
}

// Wait blocks until the operation completes. For receives, the returned
// slice is the message payload and from/tag identify the sender.
func (r *Request) Wait() (data []byte, from, tag int, err error) {
	return r.WaitCtx(nil)
}

// Isend starts a non-blocking send. It is Send — the caller may reuse the
// buffer as soon as Isend returns — and Wait only reports the delivery
// status. Small messages are copied and queued, so on tcp the per-peer
// writer goroutine performs the socket write asynchronously and Isend
// returns without waiting for the kernel; from 64 KiB up tcp skips the
// copy and writes straight from the caller's buffer, returning once it is
// written (shm does so at every size).
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	return &Request{err: c.Send(dst, tag, data)}
}

// Irecv starts a non-blocking receive for a message matching (src, tag):
// it posts the receive in the rank's mailbox (Comm.Post) with no parts —
// the payload is the request's to return — so receives posted for one
// (src, tag) stream match its messages in the order they were posted,
// and no goroutine stands behind the request.
func (c *Comm) Irecv(src, tag int) *Request {
	r := &Request{}
	r.err = c.Post(&r.recv, src, tag, nil)
	return r
}

// WaitAll waits on every request and returns the first error encountered.
func WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if _, _, _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WaitCtx is Wait with cancellation: it returns early with ctx.Err() when
// the context is cancelled before the operation completes. A cancelled
// receive releases its mailbox slot: the post is revoked without
// consuming a message, so a message that arrives later stays matchable by
// a future Recv and no staging-arena buffer is pinned. If the receive had
// already matched when the cancellation raced in, the payload is recycled
// back to the arena. A nil context behaves like Wait.
func (r *Request) WaitCtx(ctx context.Context) (data []byte, from, tag int, err error) {
	if r.recv.c == nil {
		return nil, 0, 0, r.err
	}
	c := r.recv.c
	e, _, err := r.recv.wait(ctx)
	if err != nil {
		return nil, 0, 0, err
	}
	return e.data, c.localRank(e.src), e.tag, nil
}

// WaitAllCtx waits on every request until done or the context is
// cancelled, returning the first error encountered. Receives not yet
// complete at cancellation release their mailbox slots (see WaitCtx).
func WaitAllCtx(ctx context.Context, reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if _, _, _, err := r.WaitCtx(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}
