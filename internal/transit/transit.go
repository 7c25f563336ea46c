// Package transit implements the paper's in-transit coupling: M producer
// ranks (a running simulation) stream intermediate data to N consumer
// ranks (an analysis application) inside one world, with no uniformity
// requirement between M and N (Figure 4 shows 10 producers feeding 4
// consumers). Consumers then use DDR to regrid what arrived into the
// layout the analysis needs (Figure 5).
package transit

import (
	"fmt"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// transitTagBase reserves a tag range for streamed steps, below the DDR
// point-to-point range.
const (
	transitTagBase = 1 << 16
	transitTagMod  = 1 << 12
)

// Role distinguishes the two sides of a coupling.
type Role int

// Coupling roles.
const (
	Producer Role = iota
	Consumer
)

func (r Role) String() string {
	if r == Producer {
		return "producer"
	}
	return "consumer"
}

// Coupling connects the first M ranks of a world (producers) to the last
// N ranks (consumers). Producers are assigned to consumers in contiguous
// blocks of near-equal size, the layout in the paper's Figure 4.
type Coupling struct {
	World *mpi.Comm
	Local *mpi.Comm // sub-communicator of my own group
	Role  Role
	M, N  int

	blocks []int    // SplitEven(M, N): producer block boundaries per consumer
	leased [][]byte // consumer: payloads handed out by Recv and not yet recycled
}

// NewCoupling splits the world into an M-producer and an N-consumer group.
// It is collective over the world communicator.
func NewCoupling(world *mpi.Comm, m, n int) (*Coupling, error) {
	if m < 1 || n < 1 || m+n != world.Size() {
		return nil, fmt.Errorf("transit: world of %d cannot host %d producers + %d consumers",
			world.Size(), m, n)
	}
	if n > m {
		return nil, fmt.Errorf("transit: more consumers (%d) than producers (%d) leaves idle consumers", n, m)
	}
	role := Producer
	if world.Rank() >= m {
		role = Consumer
	}
	local, err := world.Split(int(role), world.Rank())
	if err != nil {
		return nil, err
	}
	return &Coupling{
		World:  world,
		Local:  local,
		Role:   role,
		M:      m,
		N:      n,
		blocks: grid.SplitEven(m, n),
	}, nil
}

// ConsumerOf returns the consumer (local rank in the consumer group) that
// producer p streams to.
func (cp *Coupling) ConsumerOf(p int) int {
	for c := 0; c < cp.N; c++ {
		if p >= cp.blocks[c] && p < cp.blocks[c+1] {
			return c
		}
	}
	return -1
}

// ProducersOf returns the half-open range [lo, hi) of producer local ranks
// streaming to consumer c.
func (cp *Coupling) ProducersOf(c int) (lo, hi int) {
	return cp.blocks[c], cp.blocks[c+1]
}

func stepTag(step int) int {
	if step < 0 {
		step = -step
	}
	return transitTagBase + step%transitTagMod
}

// Send streams this producer's payload for the given step to its consumer.
// Must be called on the producer side.
func (cp *Coupling) Send(step int, payload []byte) error {
	if cp.Role != Producer {
		return fmt.Errorf("transit: Send called on a %v rank", cp.Role)
	}
	me := cp.Local.Rank()
	consumerWorld := cp.M + cp.ConsumerOf(me)
	return cp.World.Send(consumerWorld, stepTag(step), payload)
}

// Message is one producer's payload for a step.
type Message struct {
	ProducerRank int // local rank within the producer group
	// Data is leased from the staging arena: it is valid until the next
	// Recv on the coupling that returned it, which recycles it. Copy what
	// must outlive the step.
	Data []byte
}

// Recv collects the step's payloads from every producer assigned to this
// consumer, returned in ascending producer rank. Must be called on the
// consumer side.
//
// The payloads are a lease, not a gift: each Recv first returns the
// previous call's payloads to the staging arena (mpi.PutBuffer), so a
// steady stream reuses the same receive buffers instead of allocating and
// zeroing one per message. A failed Recv keeps the payloads it already
// took in the lease, so the next call (or the garbage collector, with the
// coupling) reclaims them exactly once.
func (cp *Coupling) Recv(step int) ([]Message, error) {
	if cp.Role != Consumer {
		return nil, fmt.Errorf("transit: Recv called on a %v rank", cp.Role)
	}
	for _, data := range cp.leased {
		mpi.PutBuffer(data)
	}
	cp.leased = cp.leased[:0]
	lo, hi := cp.ProducersOf(cp.Local.Rank())
	out := make([]Message, 0, hi-lo)
	for p := lo; p < hi; p++ {
		data, _, _, err := cp.World.Recv(p, stepTag(step))
		if err != nil {
			return nil, err
		}
		cp.leased = append(cp.leased, data)
		out = append(out, Message{ProducerRank: p, Data: data})
	}
	return out, nil
}
