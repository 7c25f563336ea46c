package mpi

import (
	"context"
	"sync"

	"ddr/internal/datatype"
)

// Typed sends: a message handed to the transport as ordered (datatype,
// buffer) parts instead of bytes, so the transport — not the caller —
// decides where the gather happens, the way MPI derived datatypes let the
// communication layer move non-contiguous data. On bare inproc the parts
// pack straight into the receiver's posted span; on tcp the writer puts
// every part's runs of a large message straight into its vectored write
// and the kernel's copy is the only one; on shm the parts pack straight
// into the ring record; everywhere else they pack into an arena wire
// handed over by ownership.

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

// appendRuns appends every part's contiguous runs, in order, to iov.
func appendRuns(iov [][]byte, parts []Part) [][]byte {
	for i := range parts {
		p := &parts[i]
		switch {
		case p.T != nil:
			iov = p.T.AppendRuns(iov, p.Buf)
		case len(p.Buf) > 0:
			iov = append(iov, p.Buf)
		}
	}
	return iov
}

// typedSender is the one optional transport capability: deliver a
// message of n packed bytes — the parts, or e.data when parts is nil —
// without an arena wire, by landing it in the receiver's posted span
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
// once it returns. On bare inproc a message of exactly the length of the
// receiver's open post is packed straight into its span; on tcp, with a
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
