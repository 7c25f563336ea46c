package mpi

import (
	"context"
	"sync"

	"ddr/internal/datatype"
)

// Typed sends: a message handed to the transport as ordered (datatype,
// buffer) parts instead of bytes, so the transport — not the caller —
// decides where the gather happens, the way MPI derived datatypes let the
// communication layer move non-contiguous data. A posted receive offers
// its regions in the same shape (Comm.Post). On bare inproc the parts'
// runs copy straight into the receiver's posted parts; on tcp the writer
// puts every part's runs of a large message straight into its vectored
// write and the kernel's copy is the only one; on shm the parts pack
// straight into the ring record, which the consumer unpacks straight into
// the posted parts; everywhere else they pack into an arena wire handed
// over by ownership.

// Part is one piece of a typed message: the bytes of Buf that T selects,
// in T's pack order. A nil T takes Buf whole.
type Part struct {
	T   datatype.Type
	Buf []byte
}

func (p *Part) size() int {
	if p.T == nil {
		return len(p.Buf)
	}
	return p.T.PackedSize()
}

// partsSize is the packed size of a message's parts.
func partsSize(parts []Part) int {
	n := 0
	for i := range parts {
		n += parts[i].size()
	}
	return n
}

// packParts gathers parts into wire, which holds exactly their packed size.
func packParts(wire []byte, parts []Part) {
	off := 0
	for i := range parts {
		p := &parts[i]
		if p.T == nil {
			off += copy(wire[off:], p.Buf)
		} else {
			off += p.T.Pack(p.Buf, wire[off:])
		}
	}
}

// unpackParts scatters wire, which holds exactly the parts' packed size,
// into them.
func unpackParts(wire []byte, parts []Part) {
	off := 0
	for i := range parts {
		p := &parts[i]
		if p.T == nil {
			off += copy(p.Buf, wire[off:])
		} else {
			off += p.T.Unpack(wire[off:], p.Buf)
		}
	}
}

// CopyParts copies the packed bytes of src into the regions of dst, which
// pack to the same size: what SendTyped of src into a post of dst leaves,
// in one copy. One merge-walk copies src's runs into dst's, a run cut
// wherever the other side's boundary falls, with nothing in between and
// nothing allocated. The walk alone copies every shape; a plain span on
// either side takes the other side's pack or unpack instead because that
// measured faster (2-vCPU VM, alternating runs against the walk alone):
// BenchmarkStackExchange/landed, whose landings are mostly contiguous,
// 2.22 [2.21, 2.26] vs 2.42 [2.30, 2.50] ms an exchange, lower in 9 of 10;
// epoch_ms_p50 on fft_transpose 26.2 vs 28.6 ms, lower in 8 of 10 pairs.
func CopyParts(dst, src []Part) {
	switch {
	case len(dst) == 1 && dst[0].T == nil:
		packParts(dst[0].Buf, src)
	case len(src) == 1 && src[0].T == nil:
		unpackParts(src[0].Buf, dst)
	default:
		to, from := partRuns{parts: dst}, partRuns{parts: src}
		var d, s []byte
		for {
			if len(d) == 0 {
				if d = to.next(); d == nil {
					return
				}
			}
			if len(s) == 0 {
				if s = from.next(); s == nil {
					return
				}
			}
			n := copy(d, s)
			d, s = d[n:], s[n:]
		}
	}
}

// partRuns is a cursor over the runs of a message's parts, in order.
type partRuns struct {
	parts []Part
	runs  datatype.Runs
}

func (w *partRuns) next() []byte {
	for {
		if run := w.runs.Next(); run != nil || len(w.parts) == 0 {
			return run
		}
		p := &w.parts[0]
		w.parts = w.parts[1:]
		if p.T == nil {
			w.runs = datatype.Contiguous{Bytes: len(p.Buf)}.Runs(p.Buf)
		} else {
			w.runs = p.T.Runs(p.Buf)
		}
	}
}

// appendRuns appends every part's contiguous runs, in order, to iov.
func appendRuns(iov [][]byte, parts []Part) [][]byte {
	for r := (partRuns{parts: parts}); ; {
		run := r.next()
		if run == nil {
			return iov
		}
		iov = append(iov, run)
	}
}

// typedSender is the one optional transport capability: deliver a
// message of n packed bytes — the parts, or e.data when parts is nil —
// without an arena wire, by landing it in the receiver's posted parts
// (inproc), lending it to the writer (tcp) or writing it into the ring
// (shm). handled=false means the message does not qualify, and the
// caller packs it into a wire the transport owns.
type typedSender interface {
	sendTyped(dst int, e envelope, parts []Part, n int) (handled bool, err error)
}

// borrow is a send whose payload a transport writes straight from the
// caller's memory — the envelope's data, or parts when set — while the
// caller blocks on done. The writer signals done exactly once: nil when
// the bytes are written, its error when it died first. Pooled, so a
// blocking send allocates nothing.
type borrow struct {
	parts []Part
	n     int // parts' packed size
	done  chan error
}

var borrows = sync.Pool{New: func() any { return &borrow{done: make(chan error, 1)} }}

// SendTyped sends one message whose payload is the packed bytes of parts,
// concatenated in order: the receiver gets exactly what Send of those
// bytes would deliver. As with Send the caller may touch the buffers again
// once it returns. On bare inproc a message of exactly the packed size of
// the receiver's open post is copied run by run into its parts; on tcp, with a
// nil ctx and a message of one frame from readBufSize (64 KiB) up — the
// sizes Send lends — the writer sends the parts' runs straight from the
// buffers and SendTyped blocks until they are written; on shm a message
// that fits one ring record is packed straight into it. Otherwise the
// parts are packed into an arena wire, charged to meter (nil for none)
// until it is handed to the transport, which owns it from then on. A
// non-nil ctx bounds a saturated outbound queue: past its deadline the
// call fails with an error wrapping ErrExchangeTimeout instead of
// blocking.
func (c *Comm) SendTyped(ctx context.Context, dst, tag int, parts []Part, meter *StagingMeter) error {
	cancel, err := c.sendArgs(ctx, dst, tag)
	if err != nil {
		return err
	}
	return c.send(cancel, dst, tag, nil, parts, meter)
}
