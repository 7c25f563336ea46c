package mpi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"ddr/internal/datatype"
	"ddr/internal/grid"
)

// typedCase is one typed message shape: build allocates and fills its
// source buffers deterministically, so sender and receiver derive the same
// parts independently.
type typedCase struct {
	name  string
	build func(salt int) []Part
}

// typedFill writes the salted pattern every typed case fills its sources
// with.
func typedFill(b []byte, salt int) []byte {
	for i := range b {
		b[i] = byte(i*13 + salt*7 + i>>9)
	}
	return b
}

// subarrayPart is a part selecting sub out of a freshly filled array.
func subarrayPart(elem int, array, sub grid.Box, salt int) Part {
	t, err := datatype.NewSubarray(elem, array, sub)
	if err != nil {
		panic(err)
	}
	return Part{T: t, Buf: typedFill(make([]byte, array.Volume()*elem), salt)}
}

// typedCases spans contiguous, 2-D strided, 3-D strided and multi-part
// messages at sizes on both sides of readBufSize (64 KiB), of shm's
// 256 KiB and of tcp's 1 MiB chunk threshold.
func typedCases() []typedCase {
	contig := func(n int) func(int) []Part {
		return func(salt int) []Part { return []Part{{Buf: typedFill(make([]byte, n), salt)}} }
	}
	rows := grid.Box2(0, 0, 1024, 300) // float32 rows of 4 KiB
	strided2 := func(w, h int) func(int) []Part {
		return func(salt int) []Part { return []Part{subarrayPart(4, rows, grid.Box2(1, 3, w, h), salt)} }
	}
	cube := grid.Box3(0, 0, 0, 64, 64, 40)
	big := grid.Box3(0, 0, 0, 128, 128, 20)
	strided3 := func(array grid.Box, sub grid.Box) func(int) []Part {
		return func(salt int) []Part { return []Part{subarrayPart(4, array, sub, salt)} }
	}
	plane := func(salt int) Part { return subarrayPart(4, cube, grid.Box3(2, 3, 4, 60, 50, 1), salt) }
	return []typedCase{
		{"contig/0B", contig(0)},
		{"contig/100B", contig(100)},
		{"contig/64KiB-4", contig(readBufSize - 4)},
		{"contig/64KiB+4", contig(readBufSize + 4)},
		{"contig/300KiB", contig(300 << 10)},
		{"contig/1MiB+4KiB", contig(tcpChunkThreshold + 4096)},
		{"strided2d/200B", strided2(10, 5)},
		{"strided2d/62.5KiB", strided2(500, 32)},
		{"strided2d/64.5KiB", strided2(500, 33)},
		{"strided2d/312KiB", strided2(1000, 80)},
		{"strided2d/1.03MiB", strided2(1000, 270)},
		{"strided3d/58.6KiB", strided3(cube, grid.Box3(2, 3, 4, 60, 50, 5))},
		{"strided3d/70.3KiB", strided3(cube, grid.Box3(2, 3, 4, 60, 50, 6))},
		{"strided3d/1.04MiB", strided3(big, grid.Box3(4, 4, 1, 120, 120, 19))},
		{"multi/75KiB", func(salt int) []Part {
			return []Part{
				{Buf: typedFill(make([]byte, 1000), salt)},
				subarrayPart(4, rows, grid.Box2(7, 1, 500, 32), salt+1),
				plane(salt + 2),
			}
		}},
		{"multi/1.3MiB", func(salt int) []Part {
			return []Part{
				{Buf: typedFill(make([]byte, 300<<10), salt)},
				plane(salt + 1),
				subarrayPart(4, rows, grid.Box2(2, 5, 1000, 270), salt+2),
			}
		}},
	}
}

// packedOf is what a typed message must deliver: each part's Pack of its
// source, concatenated.
func packedOf(parts []Part) []byte {
	var out []byte
	for _, p := range parts {
		if p.T == nil {
			out = append(out, p.Buf...)
			continue
		}
		wire := make([]byte, p.T.PackedSize())
		p.T.Pack(p.Buf, wire)
		out = append(out, wire...)
	}
	return out
}

// TestTypedSendMatchesPacked sends every typed case from rank 0 to two
// destinations on every transport —
// with and without a deadline context and a staging meter, so the lent,
// ring-record and arena-wire paths all run — and checks the receiver gets
// exactly the parts' packed bytes although the sender scribbles its
// sources the moment SendTyped returns, and that no staging stays charged.
// Then every case goes once more into an open post, typed and as a plain
// Send of its packed bytes (typedLanding).
func TestTypedSendMatchesPacked(t *testing.T) {
	noop := funcInjector(func(src, dst, tag int, seq uint64, attempt int) Fault { return Fault{} })
	worlds := []struct {
		name  string
		lands landing
		opts  []LaunchOption
	}{
		{"inproc", landsExact, []LaunchOption{WithFaultInjector(nil)}},
		{"inproc+injector", landsNever, []LaunchOption{WithFaultInjector(noop)}},
		{"tcp", landsNever, []LaunchOption{WithTransport(TransportTCP), WithFaultInjector(nil)}},
		{"shm", landsMaybe, []LaunchOption{WithTransport(TransportShm), WithFaultInjector(nil)}},
	}
	cases := typedCases()
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			err := Launch(4, func(c *Comm) error {
				switch c.Rank() {
				case 0:
					var meter StagingMeter
					for i, tc := range cases {
						for _, dst := range []int{1, 3} {
							var ctx context.Context
							if i%2 == 1 {
								var cancel context.CancelFunc
								ctx, cancel = context.WithCancel(context.Background())
								defer cancel()
							}
							parts := tc.build(i)
							if err := c.SendTyped(ctx, dst, 5, parts, &meter); err != nil {
								return fmt.Errorf("%s to %d: %w", tc.name, dst, err)
							}
							for _, p := range parts {
								clear(p.Buf)
							}
							if cur := meter.Current(); cur != 0 {
								return fmt.Errorf("%s to %d: %d staging bytes still charged", tc.name, dst, cur)
							}
						}
					}
				case 1, 3:
					for i, tc := range cases {
						got, _, _, err := c.Recv(0, 5)
						if err != nil {
							return err
						}
						if want := packedOf(tc.build(i)); !bytes.Equal(got, want) {
							return fmt.Errorf("rank %d: %s arrived as %d bytes, want %d packed bytes", c.Rank(), tc.name, len(got), len(want))
						}
						PutBuffer(got)
					}
				}
				return typedLanding(c, cases, w.lands)
			}, w.opts...)
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// landing is what a transport does with a message sent into an open post.
type landing int

const (
	landsNever landing = iota // the post completes with an arena payload
	landsExact                // the send lands a message of exactly the span's length, if it has any bytes
	landsMaybe                // the ring consumer may land it, depending on size
)

// typedLanding has rank 1 post a receive for each case — its span exactly
// the packed length, then one byte longer — before rank 0 sends the case,
// typed and as a plain Send of its packed bytes, and checks Wait reports
// landed exactly when lands says it must, with the packed bytes either way.
func typedLanding(c *Comm, cases []typedCase, lands landing) error {
	const tagData, tagGo = 6, 7
	for i, tc := range cases {
		for _, plain := range []bool{false, true} {
			for extra := 0; extra < 2; extra++ {
				switch c.Rank() {
				case 0:
					if _, _, _, err := c.Recv(1, tagGo); err != nil {
						return err
					}
					var err error
					if parts := tc.build(i); plain {
						err = c.Send(1, tagData, packedOf(parts))
					} else {
						err = c.SendTyped(nil, 1, tagData, parts, nil)
					}
					if err != nil {
						return err
					}
				case 1:
					want := packedOf(tc.build(i))
					span := make([]byte, len(want)+extra)
					var p Posted
					if err := c.Post(&p, 0, tagData, span); err != nil {
						return err
					}
					if err := c.Send(0, tagGo, nil); err != nil {
						return err
					}
					data, landed, err := p.Wait(nil)
					if err != nil {
						return err
					}
					name := fmt.Sprintf("%s, plain %v, span +%d", tc.name, plain, extra)
					must := lands == landsExact && extra == 0 && len(want) > 0
					if landed != must && (lands != landsMaybe || landed && extra > 0) {
						return fmt.Errorf("%s: landed %v, want %v", name, landed, must)
					}
					if landed {
						data = span
					}
					if !bytes.Equal(data, want) {
						return fmt.Errorf("%s: %d bytes delivered, want %d packed bytes", name, len(data), len(want))
					}
					if !landed {
						PutBuffer(data)
					}
				}
			}
		}
	}
	return nil
}

// TestTCPWriterDeathReleasesBorrowedSend: a sender blocked while the
// writer is inside the vectored write of its lent payload — here one the
// peer never reads, so the write cannot finish — is released with
// ErrPeerLost when the connection dies under the writer, for a typed and
// for a plain borrowed send alike.
func TestTCPWriterDeathReleasesBorrowedSend(t *testing.T) {
	const n = 8 << 20 // far past what the socket buffers can absorb
	array := grid.Box2(0, 0, 2048, 1100)
	sends := map[string]func(c *Comm) error{
		"typed": func(c *Comm) error {
			return c.SendTyped(nil, 1, 7, []Part{subarrayPart(4, array, grid.Box2(8, 8, 2000, n/8000), 1)}, nil)
		},
		"plain": func(c *Comm) error { return c.Send(1, 7, make([]byte, n)) },
	}
	for name, send := range sends {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			// One frame, not a chunk stream, from a 4 KiB socket buffer.
			cfg := tcpChunked(2*n, tcpChunkSize)
			cfg.sndbuf = 4096
			ep, err := newTCPEndpoint("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ep.Close()
			c, err := ep.Join(0, []string{ep.Addr(), ln.Addr().String()})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- send(c) }()
			peer, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			// The batch is counted just before it is written; give the
			// write a moment to fill the socket and block.
			for ep.Stats().Batches == 0 {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
			select {
			case err := <-done:
				t.Fatalf("borrowed send returned before its payload could be written: %v", err)
			default:
			}
			peer.(*net.TCPConn).SetLinger(0) //nolint:errcheck // reset, not a graceful close
			peer.Close()
			select {
			case err := <-done:
				if !errors.Is(err, ErrPeerLost) {
					t.Fatalf("released with %v, want ErrPeerLost", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("sender still blocked after its writer died")
			}
		})
	}
}
