package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ddr/internal/obs"
)

// IsPeerLoss reports whether err is a peer-loss or deadline condition —
// the class of failures graceful-degradation paths treat as "give up on
// this peer, keep going with the rest".
func IsPeerLoss(err error) bool {
	return errors.Is(err, ErrPeerLost) || errors.Is(err, ErrExchangeTimeout)
}

// Fault describes what the injector wants done with one delivery attempt
// of one message. The zero value means "deliver normally".
type Fault struct {
	// Delay postpones the delivery (and everything queued behind it on
	// the same link, so per-link FIFO order is preserved; cross-link
	// reordering arises naturally).
	Delay time.Duration
	// Drop discards this attempt. The engine retries with bounded
	// exponential backoff, consulting the injector again with an
	// incremented attempt counter; when retries are exhausted the link is
	// declared failed (ErrPeerLost).
	Drop bool
	// Duplicate delivers the message twice. The second copy carries the
	// same sequence number and is discarded by the receiving mailbox's
	// dedupe window.
	Duplicate bool
	// Reorder lets the next queued message on the link overtake this one,
	// provided it belongs to a different (communicator, tag) stream —
	// matched receives within one tag stream stay ordered.
	Reorder bool
	// Sever permanently cuts the link: this message and everything queued
	// or sent after it is discarded, subsequent sends fail with
	// ErrPeerLost, and the destination rank's mailbox is notified so
	// blocked receivers fail instead of hanging.
	Sever bool
}

// FaultInjector decides the fate of each delivery attempt. Implementations
// must be safe for concurrent use (one engine goroutine per link calls
// in). src and dst are world ranks, tag is the message tag (collectives
// use negative tags), seq is the per-link message sequence number (1-based)
// and attempt counts retries of the same message (0 for the first try).
type FaultInjector interface {
	FaultFor(src, dst, tag int, seq uint64, attempt int) Fault
}

// defaultFaultInjector is consulted by Launch when no explicit
// injector is given, letting binaries enable chaos soak via flags without
// plumbing an injector through every call site.
var defaultFaultInjector atomic.Value // of FaultInjector

// SetDefaultFaultInjector installs (or, with nil, clears) the process-wide
// fault injector that Launch wraps around every world it builds.
func SetDefaultFaultInjector(inj FaultInjector) {
	if inj == nil {
		defaultFaultInjector.Store(injectorBox{})
		return
	}
	defaultFaultInjector.Store(injectorBox{inj})
}

type injectorBox struct{ inj FaultInjector }

func defaultInjector() FaultInjector {
	v, _ := defaultFaultInjector.Load().(injectorBox)
	return v.inj
}

const (
	faultMaxRetries     = 6
	faultBackoff        = 200 * time.Microsecond
	faultReorderWait    = 200 * time.Microsecond
	faultLinkQueueDepth = 1024
)

// faultTransport wraps a raw transport with a per-destination delivery
// worker that applies injected faults. It deliberately does not implement
// typedSender: under chaos every payload — a Send's copy, a SendTyped's
// packed wire — is a staging-arena buffer owned by the engine, so retries
// and duplicates have clean buffer ownership, no caller ever waits on a
// delivery the injector may delay or drop, and nothing lands in a post.
type faultTransport struct {
	raw      transport
	inj      FaultInjector
	src      int      // this rank's world rank
	counters *traffic // this rank's, whose telemetry counts the verdicts

	// onPeerLost, when non-nil, notifies the destination rank's mailbox
	// that this sender is gone (dst, src are world ranks). Only possible
	// when both ends live in this process.
	onPeerLost func(dst, src int, err error)

	mu     sync.Mutex
	links  map[int]*faultLink
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// verdict mirrors one injector verdict into the rank's telemetry: its
// kind's counter when counted, and the flight recorder's event,
// attributed to this sender. Free when the rank has no telemetry.
func (t *faultTransport) verdict(kind obs.FlightKind, counted bool, dst int, e *envelope) {
	tel := t.counters.telemetry()
	if tel == nil {
		return
	}
	if counted {
		switch kind {
		case obs.FlightSever:
			tel.faultSevers.Add(1)
		case obs.FlightDrop:
			tel.faultDrops.Add(1)
		case obs.FlightRetry:
			tel.faultRetries.Add(1)
		}
	}
	if tel.flight == nil {
		return
	}
	tel.flight.Record(obs.FlightEvent{
		Kind: kind, Rank: int32(t.src), Peer: int32(dst),
		Tag: int32(e.tag), Round: int32(e.tc.Round), Seq: e.seq,
		Exchange: e.tc.Exchange, Bytes: int64(len(e.data)),
	})
}

// faultLink is the outbound queue and worker state for one destination.
type faultLink struct {
	dst  int
	ch   chan envelope
	dead chan struct{} // closed once the link is severed or failed
	seq  atomic.Uint64

	errMu sync.Mutex
	err   error
}

func (l *faultLink) fail(err error) {
	l.errMu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.errMu.Unlock()
	close(l.dead)
}

func (l *faultLink) failure() error {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.err
}

func newFaultTransport(raw transport, inj FaultInjector, counters *traffic, onPeerLost func(dst, src int, err error)) *faultTransport {
	return &faultTransport{
		raw:        raw,
		inj:        inj,
		src:        counters.rank,
		counters:   counters,
		onPeerLost: onPeerLost,
		links:      make(map[int]*faultLink),
		stop:       make(chan struct{}),
	}
}

func (t *faultTransport) link(dst int) (*faultLink, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	l := t.links[dst]
	if l == nil {
		l = &faultLink{dst: dst, ch: make(chan envelope, faultLinkQueueDepth), dead: make(chan struct{})}
		t.links[dst] = l
		t.wg.Add(1)
		go t.worker(l)
	}
	return l, nil
}

func (t *faultTransport) send(dst int, e envelope) error {
	l, err := t.link(dst)
	if err != nil {
		return err
	}
	e.seq = l.seq.Add(1)
	if e.cancel != nil {
		select {
		case l.ch <- e:
			return nil
		case <-l.dead:
			PutBuffer(e.data)
			return l.failure()
		case <-e.cancel:
			PutBuffer(e.data)
			return ErrExchangeTimeout
		}
	}
	select {
	case l.ch <- e:
		return nil
	case <-l.dead:
		PutBuffer(e.data)
		return l.failure()
	}
}

func (t *faultTransport) worker(l *faultLink) {
	defer t.wg.Done()
	for {
		select {
		case e := <-l.ch:
			if !t.process(l, e) {
				t.drainDead(l)
				return
			}
		case <-t.stop:
			// Flush: deliver whatever is still queued without faults, then
			// exit. Mirrors the TCP writer's close-time flush semantics.
			for {
				select {
				case e := <-l.ch:
					t.raw.send(l.dst, e)
				default:
					return
				}
			}
		}
	}
}

// drainDead recycles anything queued behind a severed link.
func (t *faultTransport) drainDead(l *faultLink) {
	for {
		select {
		case e := <-l.ch:
			PutBuffer(e.data)
		default:
			return
		}
	}
}

// process applies the injector's verdicts to one message. It returns
// false when the link died (severed, retries exhausted, or raw transport
// failure).
func (t *faultTransport) process(l *faultLink, e envelope) bool {
	for attempt := 0; ; attempt++ {
		f := t.inj.FaultFor(t.src, l.dst, e.tag, e.seq, attempt)
		if f.Sever {
			t.verdict(obs.FlightSever, true, l.dst, &e)
			t.severLink(l, fmt.Errorf("mpi: link %d->%d severed by fault injection: %w", t.src, l.dst, ErrPeerLost))
			PutBuffer(e.data)
			return false
		}
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
		if f.Drop {
			t.verdict(obs.FlightDrop, true, l.dst, &e)
			if attempt >= faultMaxRetries {
				t.verdict(obs.FlightSever, false, l.dst, &e) // retries exhausted: a failed link, not a cut
				t.severLink(l, fmt.Errorf("mpi: link %d->%d failed after %d delivery attempts: %w", t.src, l.dst, attempt+1, ErrPeerLost))
				PutBuffer(e.data)
				return false
			}
			t.verdict(obs.FlightRetry, true, l.dst, &e)
			time.Sleep(faultBackoff << uint(attempt))
			continue
		}
		if f.Reorder {
			// Let the next queued message overtake this one, but only
			// across (communicator, tag) streams: reordering within one
			// matched stream would violate the ordering Recv relies on.
			select {
			case e2 := <-l.ch:
				if e2.ctx != e.ctx || e2.tag != e.tag {
					if err := t.raw.send(l.dst, e2); err != nil {
						t.severLink(l, err)
						PutBuffer(e.data)
						return false
					}
				} else {
					// Same stream: keep order, deliver both in sequence.
					if err := t.deliver(l, e, f.Duplicate); err != nil {
						PutBuffer(e2.data)
						return false
					}
					e, f.Duplicate = e2, false
				}
			case <-time.After(faultReorderWait):
			}
		}
		return t.deliver(l, e, f.Duplicate) == nil
	}
}

func (t *faultTransport) deliver(l *faultLink, e envelope, dup bool) error {
	// The duplicate must own its payload, and must copy it BEFORE the
	// first send: transports recycle a message's buffer once delivered
	// (the shm ring synchronously after the ring copy, the TCP writer
	// after the wire write, the mailbox's dedupe window on discard), so
	// after raw.send returns e.data may already be back in the arena —
	// and handed to a concurrent receiver.
	var d envelope
	if dup {
		d = e
		d.data = GetBuffer(len(e.data))
		copy(d.data, e.data)
	}
	if err := t.raw.send(l.dst, e); err != nil {
		t.severLink(l, err)
		if dup {
			PutBuffer(d.data)
		}
		return err
	}
	if dup {
		if err := t.raw.send(l.dst, d); err != nil {
			t.severLink(l, err)
			return err
		}
	}
	return nil
}

func (t *faultTransport) severLink(l *faultLink, err error) {
	l.fail(err)
	// Notify the destination in-band: a lostCtx control envelope sent
	// through the raw transport arrives at the mailbox behind every
	// message delivered before the sever, so spared traffic still in
	// flight (in a shm ring or a tcp socket — e.g. mapping collectives
	// below the injector's tag floor) stays consumable before the peer
	// reads as lost. A direct markLost here would race
	// ahead of those asynchronous deliveries and fail receives whose
	// messages were already sent.
	msg := err.Error()
	buf := GetBuffer(len(msg))
	copy(buf, msg)
	if serr := t.raw.send(l.dst, envelope{ctx: lostCtx, src: t.src, data: buf}); serr == nil {
		return
	}
	// The raw link itself is down; fall back to the direct mark.
	if t.onPeerLost != nil {
		t.onPeerLost(l.dst, t.src, err)
	}
}

func (t *faultTransport) close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	close(t.stop)
	t.wg.Wait()
	return t.raw.close()
}
