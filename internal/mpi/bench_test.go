package mpi

import (
	"context"
	"fmt"
	"testing"

	"ddr/internal/datatype"
	"ddr/internal/grid"
)

// BenchmarkPingPong measures round-trip latency per transport and message
// size. Both sides return received payloads to the arena, as the exchange
// engine does, so a large size measures the transport rather than the
// allocator zeroing a fresh buffer per receive.
func BenchmarkPingPong(b *testing.B) {
	for _, tr := range transports {
		for _, size := range []int{16, 4096, 1 << 20} {
			b.Run(fmt.Sprintf("%s/%dB", tr.name, size), func(b *testing.B) {
				b.SetBytes(int64(size))
				err := tr.run(2, func(c *Comm) error {
					msg := make([]byte, size)
					if c.Rank() == 0 {
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if err := c.Send(1, 0, msg); err != nil {
								return err
							}
							data, _, _, err := c.Recv(1, 1)
							if err != nil {
								return err
							}
							PutBuffer(data)
						}
					} else {
						for i := 0; i < b.N; i++ {
							data, _, _, err := c.Recv(0, 0)
							if err != nil {
								return err
							}
							PutBuffer(data)
							if err := c.Send(0, 1, msg); err != nil {
								return err
							}
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// benchStorm drives an all-to-all storm of small messages: every rank
// sends perPeer messages of size bytes to every other rank, then drains
// the matching receives. This is the traffic shape of a redistribution
// round's control plane plus many small overlaps, and it is dominated by
// per-frame transport overhead (syscalls, allocations, lock handoffs).
func benchStorm(b *testing.B, run func(int, func(*Comm) error) error, ranks, perPeer, size int) {
	b.SetBytes(int64((ranks - 1) * perPeer * size))
	err := run(ranks, func(c *Comm) error {
		msg := make([]byte, size)
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			for m := 0; m < perPeer; m++ {
				for peer := 0; peer < c.Size(); peer++ {
					if peer == c.Rank() {
						continue
					}
					if err := c.Send(peer, m, msg); err != nil {
						return err
					}
				}
			}
			for m := 0; m < perPeer; m++ {
				for peer := 0; peer < c.Size(); peer++ {
					if peer == c.Rank() {
						continue
					}
					data, _, _, err := c.Recv(peer, m)
					if err != nil {
						return err
					}
					// Model the exchange engine's consumer contract:
					// payloads go back to the arena once unpacked.
					PutBuffer(data)
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// benchLarge streams one large payload per iteration from rank 0 to rank
// 1, with a small acknowledgement closing the loop — the bulk-transfer
// shape of a big redistribution overlap.
func benchLarge(b *testing.B, run func(int, func(*Comm) error) error, size int) {
	b.SetBytes(int64(size))
	err := run(2, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			payload := make([]byte, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Send(1, 0, payload); err != nil {
					return err
				}
				if _, _, _, err := c.Recv(1, 1); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < b.N; i++ {
			data, _, _, err := c.Recv(0, 0)
			if err != nil {
				return err
			}
			PutBuffer(data)
			if err := c.Send(0, 1, []byte{1}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// benchStream is the in-transit coupling's shape: every rank but 0 sends
// one size-byte frame to rank 0 per iteration, and rank 0 acknowledges
// each once it holds them all.
func benchStream(b *testing.B, run func(int, func(*Comm) error) error, ranks, size int) {
	b.SetBytes(int64((ranks - 1) * size))
	b.ReportAllocs()
	err := run(ranks, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() != 0 {
			frame := make([]byte, size)
			for i := 0; i < b.N; i++ {
				if err := c.Send(0, 0, frame); err != nil {
					return err
				}
				data, _, _, err := c.Recv(0, 1)
				if err != nil {
					return err
				}
				PutBuffer(data)
			}
			return nil
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for src := 1; src < ranks; src++ {
				data, _, _, err := c.Recv(src, 0)
				if err != nil {
					return err
				}
				PutBuffer(data)
			}
			for src := 1; src < ranks; src++ {
				if err := c.Send(src, 1, []byte{1}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// benchStrided sends a strided 256 KiB region — 128 rows of 2 KiB out of
// a 4 KiB-row array, the regrid's message shape — from rank 0 to rank 1
// per iteration as a typed send: lent to the writer, or — under a live
// context, which tcp never lends to — packed into an arena wire and
// handed over (the executor's send before typed sends).
func benchStrided(b *testing.B, typed bool) {
	array, sub := grid.Box2(0, 0, 1024, 128), grid.Box2(256, 0, 512, 128)
	t, err := datatype.NewSubarray(4, array, sub)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(t.PackedSize()))
	b.ReportAllocs()
	err = runTCP(2, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			for i := 0; i < b.N; i++ {
				data, _, _, err := c.Recv(0, 0)
				if err != nil {
					return err
				}
				PutBuffer(data)
				if err := c.Send(0, 1, []byte{1}); err != nil {
					return err
				}
			}
			return nil
		}
		parts := []Part{{T: t, Buf: make([]byte, array.Volume()*4)}}
		var ctx context.Context
		if !typed {
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(context.Background())
			defer cancel()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.SendTyped(ctx, 1, 0, parts, nil); err != nil {
				return err
			}
			data, _, _, err := c.Recv(1, 1)
			if err != nil {
				return err
			}
			PutBuffer(data)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTCPExchange measures the socket transport on the traffic
// shapes that dominate multi-process redistributions — a 16-rank storm
// of small frames, a 64 MiB bulk payload, the in-transit 2→1 stream of
// 256 KiB frames, and a strided 256 KiB regrid message typed vs staged —
// with the in-process channel transport as the reference.
func BenchmarkTCPExchange(b *testing.B) {
	runNoChunk := func(n int, body func(*Comm) error) error {
		return Launch(n, body, WithTCPOptions(TCPOptions{ChunkThreshold: -1}))
	}
	b.Run("storm/16ranks/4KiB/tcp", func(b *testing.B) {
		benchStorm(b, runTCP, 16, 4, 4096)
	})
	b.Run("storm/16ranks/4KiB/inproc", func(b *testing.B) {
		benchStorm(b, runInProc, 16, 4, 4096)
	})
	b.Run("large/64MiB/tcp", func(b *testing.B) {
		benchLarge(b, runTCP, 64<<20)
	})
	b.Run("large/64MiB/tcp-nochunk", func(b *testing.B) {
		benchLarge(b, runNoChunk, 64<<20)
	})
	b.Run("large/64MiB/inproc", func(b *testing.B) {
		benchLarge(b, runInProc, 64<<20)
	})
	b.Run("stream/256KiB/2to1", func(b *testing.B) {
		benchStream(b, runTCP, 3, 256<<10)
	})
	b.Run("strided/256KiB/typed", func(b *testing.B) {
		benchStrided(b, true)
	})
	b.Run("strided/256KiB/staged", func(b *testing.B) {
		benchStrided(b, false)
	})
}

// BenchmarkCollectives measures the cost of each collective at a fixed
// world size over the in-process transport.
func BenchmarkCollectives(b *testing.B) {
	const n = 8
	payload := make([]byte, 4096)
	cases := []struct {
		name string
		op   func(c *Comm) error
	}{
		{"Barrier", func(c *Comm) error { return c.Barrier() }},
		{"Bcast", func(c *Comm) error {
			_, err := c.Bcast(0, payload)
			return err
		}},
		{"Allgather", func(c *Comm) error {
			_, err := c.Allgather(payload)
			return err
		}},
		{"AllreduceFloat64", func(c *Comm) error {
			_, err := c.AllreduceFloat64([]float64{1, 2, 3, 4}, OpSum)
			return err
		}},
		{"Alltoallv", func(c *Comm) error {
			send := make([][]byte, n)
			for i := range send {
				send[i] = payload[:512]
			}
			_, err := c.Alltoallv(send)
			return err
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			err := Launch(n, func(c *Comm) error {
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				for i := 0; i < b.N; i++ {
					if err := tc.op(c); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkShmExchange measures the shared-memory transport on the same
// two traffic shapes as BenchmarkTCPExchange — the 16-rank small-frame
// storm and the 64 MiB bulk payload — against the TCP-loopback and
// in-process channel transports. The acceptance bar when the transport
// landed was shm at >= 3x TCP loopback on the 64 MiB payload.
func BenchmarkShmExchange(b *testing.B) {
	b.Run("storm/16ranks/4KiB/shm", func(b *testing.B) {
		benchStorm(b, RunShm, 16, 4, 4096)
	})
	b.Run("storm/16ranks/4KiB/tcp", func(b *testing.B) {
		benchStorm(b, runTCP, 16, 4, 4096)
	})
	b.Run("storm/16ranks/4KiB/inproc", func(b *testing.B) {
		benchStorm(b, runInProc, 16, 4, 4096)
	})
	b.Run("large/64MiB/shm", func(b *testing.B) {
		benchLarge(b, RunShm, 64<<20)
	})
	b.Run("large/64MiB/tcp", func(b *testing.B) {
		benchLarge(b, runTCP, 64<<20)
	})
	b.Run("large/64MiB/inproc", func(b *testing.B) {
		benchLarge(b, runInProc, 64<<20)
	})
}

// BenchmarkHierExchange measures the two-level transport's headline
// case: a 64-rank all-to-all storm on a 4-node placement, where leader
// aggregation reduces the O(P²) socket flows of flat TCP to O(nodes²),
// versus the same storm on flat TCP loopback and on flat shm.
func BenchmarkHierExchange(b *testing.B) {
	const ranks, nodes = 64, 4
	runHier := func(n int, body func(*Comm) error) error {
		return RunHier(n, NodesOf(n, nodes), body)
	}
	b.Run("storm/64ranks/1KiB/hier-4node", func(b *testing.B) {
		benchStorm(b, runHier, ranks, 2, 1024)
	})
	b.Run("storm/64ranks/1KiB/tcp", func(b *testing.B) {
		benchStorm(b, runTCP, ranks, 2, 1024)
	})
	b.Run("storm/64ranks/1KiB/shm", func(b *testing.B) {
		benchStorm(b, RunShm, ranks, 2, 1024)
	})
}
