package transit

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"ddr/internal/mpi"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

var streamTransports = []mpi.Transport{mpi.TransportInProc, mpi.TransportTCP}

// fillPayload writes a pattern no other (step, producer) pair shares, so
// a payload overwritten by a later arrival never checks out.
func fillPayload(buf []byte, step, producer int) {
	binary.LittleEndian.PutUint32(buf, uint32(step))
	binary.LittleEndian.PutUint32(buf[4:], uint32(producer))
	for i := 8; i < len(buf); i++ {
		buf[i] = byte(i + 31*step + 7*producer)
	}
}

func checkPayloads(msgs []Message, step, size int, when string) error {
	want := make([]byte, size)
	for _, msg := range msgs {
		fillPayload(want, step, msg.ProducerRank)
		if !bytes.Equal(msg.Data, want) {
			return fmt.Errorf("step %d producer %d: payload corrupt %s", step, msg.ProducerRank, when)
		}
	}
	return nil
}

// liveSet is the world's registry of payloads some consumer still leases.
// Two live messages on one buffer mean the arena handed it out twice: it
// was returned twice, or while leased.
type liveSet struct {
	mu   sync.Mutex
	base map[*byte]int // payload base address -> leasing consumer
}

func (l *liveSet) claim(msgs []Message, consumer int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, msg := range msgs {
		p := unsafe.SliceData(msg.Data)
		if other, dup := l.base[p]; dup {
			return fmt.Errorf("consumer %d received a payload consumer %d still leases", consumer, other)
		}
		l.base[p] = consumer
	}
	return nil
}

func (l *liveSet) release(msgs []Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, msg := range msgs {
		delete(l.base, unsafe.SliceData(msg.Data))
	}
}

// scribble overwrites count free arena buffers of size's class. A payload
// recycled while its consumer still leases it is among the first drawn.
func scribble(size, count int) {
	bufs := make([][]byte, count)
	for i := range bufs {
		bufs[i] = mpi.GetBuffer(size)
		for j := range bufs[i] {
			bufs[i][j] = 0xA5
		}
	}
	for _, b := range bufs {
		mpi.PutBuffer(b)
	}
}

// TestRecvLease checks the lease from both ends: a step's payloads stay
// intact until the next Recv — through the producers' next sends, the
// transport's next reads and a scribble over every free buffer of their
// class — and no buffer is ever leased twice at once.
func TestRecvLease(t *testing.T) {
	const m, n, steps, size = 8, 4, 40, 4096
	for _, tr := range streamTransports {
		t.Run(tr.String(), func(t *testing.T) {
			live := liveSet{base: map[*byte]int{}}
			err := mpi.Launch(m+n, func(world *mpi.Comm) error {
				cp, err := NewCoupling(world, m, n)
				if err != nil {
					return err
				}
				if cp.Role == Producer {
					payload := make([]byte, size)
					for s := 0; s < steps; s++ {
						fillPayload(payload, s, cp.Local.Rank())
						if err := cp.Send(s, payload); err != nil {
							return err
						}
					}
					return nil
				}
				me := cp.Local.Rank()
				var prev []Message
				for s := 0; s < steps; s++ {
					if err := checkPayloads(prev, s-1, size, "before the next Recv"); err != nil {
						return err
					}
					live.release(prev)
					msgs, err := cp.Recv(s)
					if err != nil {
						return err
					}
					if err := checkPayloads(msgs, s, size, "on receipt"); err != nil {
						return err
					}
					if err := live.claim(msgs, me); err != nil {
						return err
					}
					scribble(size, 2*len(msgs))
					prev = msgs
				}
				return nil
			}, mpi.WithTransport(tr))
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// severAfter cuts the from -> to link at its (after+1)th streamed step.
type severAfter struct {
	from, to int
	after    int64
	sent     atomic.Int64
}

func (f *severAfter) FaultFor(src, dst, tag int, seq uint64, attempt int) mpi.Fault {
	if src != f.from || dst != f.to || tag < transitTagBase {
		return mpi.Fault{}
	}
	return mpi.Fault{Sever: f.sent.Add(1) > f.after}
}

// TestRecvFailureKeepsLease severs the second of a consumer's two
// producers mid-stream. The failed Recv has already taken the first
// producer's payload: it must stay leased (intact, and returned by the
// next Recv, not by the failing one), and nothing may go back to the
// arena twice — drawing the class dry afterwards yields distinct buffers.
func TestRecvFailureKeepsLease(t *testing.T) {
	const m, n, cut, size = 2, 1, 3, 4096
	for _, tr := range streamTransports {
		t.Run(tr.String(), func(t *testing.T) {
			inj := &severAfter{from: 1, to: m, after: cut}
			err := mpi.Launch(m+n, func(world *mpi.Comm) error {
				cp, err := NewCoupling(world, m, n)
				if err != nil {
					return err
				}
				if cp.Role == Producer {
					payload := make([]byte, size)
					for s := 0; s <= cut+1; s++ {
						fillPayload(payload, s, cp.Local.Rank())
						if err := cp.Send(s, payload); err != nil && !mpi.IsPeerLoss(err) {
							return err
						}
					}
					return nil
				}
				for s := 0; s < cut; s++ {
					if _, err := cp.Recv(s); err != nil {
						return err
					}
				}
				for s := cut; s <= cut+1; s++ {
					if _, err := cp.Recv(s); !mpi.IsPeerLoss(err) {
						return fmt.Errorf("step %d: Recv from a severed producer returned %v", s, err)
					}
					if len(cp.leased) != 1 {
						return fmt.Errorf("step %d: %d payloads leased after the failed Recv, want producer 0's", s, len(cp.leased))
					}
					held := []Message{{ProducerRank: 0, Data: cp.leased[0]}}
					scribble(size, 4)
					if err := checkPayloads(held, s, size, "after the failed Recv"); err != nil {
						return err
					}
				}
				seen := map[*byte]bool{}
				for i := 0; i < 64; i++ {
					p := unsafe.SliceData(mpi.GetBuffer(size))
					if seen[p] {
						return fmt.Errorf("the arena handed out one buffer twice: a payload was returned twice")
					}
					seen[p] = true
				}
				return nil
			}, mpi.WithTransport(tr), mpi.WithFaultInjector(inj))
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// streamSteps runs count lockstep steps of a stream of size-byte payloads:
// producers send, consumers receive, and a world barrier keeps the
// producers from running ahead, so the buffers in flight are one step's.
func streamSteps(world *mpi.Comm, cp *Coupling, payload []byte, from, count int) error {
	for s := from; s < from+count; s++ {
		var err error
		if cp.Role == Producer {
			err = cp.Send(s, payload)
		} else {
			_, err = cp.Recv(s)
		}
		if err != nil {
			return err
		}
		if err := world.Barrier(); err != nil {
			return err
		}
	}
	return nil
}

// TestStreamSteadyStateAllocs is the lease's reason to exist: once warm,
// a tcp stream of 256 KiB payloads reuses its receive buffers, so a step
// of the whole world (8 payloads, 2 MiB) allocates a small fraction of
// one payload. Without the lease every frame is a fresh zeroed buffer.
func TestStreamSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	const m, n, size, warm, runs = 8, 4, 256 << 10, 50, 50
	var before, after runtime.MemStats
	err := mpi.Launch(m+n, func(world *mpi.Comm) error {
		cp, err := NewCoupling(world, m, n)
		if err != nil {
			return err
		}
		payload := make([]byte, size)
		if err := streamSteps(world, cp, payload, 0, warm); err != nil {
			return err
		}
		// Rank 0 reads the counter between two of its own barriers, so the
		// window misses at most the other ranks' head start on its first step.
		if world.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		if err := streamSteps(world, cp, payload, warm, runs); err != nil {
			return err
		}
		if world.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		return nil
	}, mpi.WithTransport(mpi.TransportTCP))
	if err != nil {
		t.Fatal(err)
	}
	if perStep := (after.TotalAlloc - before.TotalAlloc) / runs; perStep >= 64<<10 {
		t.Errorf("%d B allocated per steady-state step of %d x %d B payloads, want < 64 KiB", perStep, m, size)
	}
}

// BenchmarkCouplingStream is one step of the intransit_regrid stream per
// op — 8 producers, 4 consumers, 256 KiB payloads on tcp — so a change
// that reintroduces a per-frame allocation shows up as B/op.
func BenchmarkCouplingStream(b *testing.B) {
	const m, n, size, warm = 8, 4, 256 << 10, 8
	b.ReportAllocs()
	b.SetBytes(m * size)
	err := mpi.Launch(m+n, func(world *mpi.Comm) error {
		cp, err := NewCoupling(world, m, n)
		if err != nil {
			return err
		}
		payload := make([]byte, size)
		if err := streamSteps(world, cp, payload, 0, warm); err != nil {
			return err
		}
		if world.Rank() == 0 {
			b.ResetTimer()
		}
		return streamSteps(world, cp, payload, warm, b.N)
	}, mpi.WithTransport(mpi.TransportTCP))
	if err != nil {
		b.Fatal(err)
	}
}
