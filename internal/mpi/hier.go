// Hierarchical (two-level) transport: ranks grouped by node exchange
// over shared-memory rings within a node, and each node's lowest rank —
// its leader — carries all of the node's inter-node traffic over TCP.
// A cross-node message hops sender → sender's leader (shm ring) →
// destination's leader (TCP) → destination (shm ring), so the number of
// TCP flows in the world is O(nodes²) instead of O(ranks²): only
// leaders ever dial a socket.
//
// The relay rides the ordinary mailbox machinery. A cross-node payload
// is wrapped with a 40-byte relay header (final destination, original
// communicator ctx/src/tag, link sequence number, trace context) and
// delivered as a message on the reserved relayCtx communicator context;
// each leader runs one relay worker that receives relayCtx messages
// from its own mailbox and either forwards them to the destination
// node's leader (outbound) or unwraps them into the final destination's
// ring (inbound). One worker per leader keeps every (sender, receiver)
// pair's relayed traffic in FIFO order.
package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ddr/internal/obs"
)

// relayCtx is the communicator context reserved for leader relay
// traffic. Split-derived contexts are minted by an arithmetic mix that
// never reaches the all-ones value in any realistic session.
const relayCtx = ^uint32(0)

// relayHeader layout (little endian):
//
//	off  0  dst   u32  final destination world rank
//	off  4  ctx   u32  original communicator context
//	off  8  src   u32  original sender world rank
//	off 12  tag   u32  original tag (int32)
//	off 16  seq   u64  original link sequence number (0 = unsequenced)
//	off 24  exch  u64  trace: exchange id
//	off 32  round u32  trace: round
//	off 36  span  u32  trace: span
const relayHeaderLen = 40

// Topology describes which node each rank of a world lives on. Build
// one with NewTopology (Launch does it for you via WithTopology); the
// same placement always yields the same Fingerprint, which plan caches
// mix into their keys so hierarchical schedules never collide with flat
// ones.
type Topology struct {
	nodeOf  []int   // world rank -> dense node index
	nodes   [][]int // node index -> member world ranks, ascending
	leaders []int   // node index -> leader world rank (lowest member)
	local   []int   // world rank -> index within its node's member list
	fp      uint64
}

// NewTopology evaluates nodeOf for every rank in [0,n) and normalizes
// the returned node ids (which need not be dense or ordered) into a
// dense topology. Every node elects its lowest rank as leader.
func NewTopology(n int, nodeOf func(rank int) int) (*Topology, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: world size %d must be positive", n)
	}
	if nodeOf == nil {
		return nil, fmt.Errorf("%w: WithTopology requires a non-nil nodeOf", ErrBadOption)
	}
	t := &Topology{nodeOf: make([]int, n), local: make([]int, n)}
	dense := map[int]int{}
	for rank := 0; rank < n; rank++ {
		id := nodeOf(rank)
		node, ok := dense[id]
		if !ok {
			node = len(t.nodes)
			dense[id] = node
			t.nodes = append(t.nodes, nil)
			t.leaders = append(t.leaders, rank)
		}
		t.nodeOf[rank] = node
		t.local[rank] = len(t.nodes[node])
		t.nodes[node] = append(t.nodes[node], rank)
	}
	h := uint64(0xcbf29ce484222325) // FNV-1a
	var b [8]byte
	for _, node := range t.nodeOf {
		binary.LittleEndian.PutUint64(b[:], uint64(node))
		for _, c := range b {
			h = (h ^ uint64(c)) * 0x100000001b3
		}
	}
	t.fp = h
	return t, nil
}

// NumNodes returns the number of distinct nodes.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumRanks returns the world size the topology was built for.
func (t *Topology) NumRanks() int { return len(t.nodeOf) }

// NodeOf returns the dense node index rank lives on.
func (t *Topology) NodeOf(rank int) int { return t.nodeOf[rank] }

// Node returns the member world ranks of one node, ascending. The slice
// is shared; callers must not mutate it.
func (t *Topology) Node(node int) []int { return t.nodes[node] }

// Leader returns the leader world rank of one node.
func (t *Topology) Leader(node int) int { return t.leaders[node] }

// IsLeader reports whether rank is its node's leader.
func (t *Topology) IsLeader(rank int) bool { return t.leaders[t.nodeOf[rank]] == rank }

// Fingerprint is a stable 64-bit digest of the placement, mixed into
// plan-cache keys so plans compiled for one topology never replay on
// another. Nil topologies (flat worlds) fingerprint as 0.
func (t *Topology) Fingerprint() uint64 {
	if t == nil {
		return 0
	}
	return t.fp
}

// localIndex returns rank's index within its node's member list.
func (t *Topology) localIndex(rank int) int { return t.local[rank] }

// HierStats snapshots the hierarchical transport's relay counters.
type HierStats struct {
	RelayBytesOut int64 // aggregated payload+header bytes leaders forwarded over TCP
	RelayMsgsOut  int64 // cross-node messages forwarded over TCP
	RelayMsgsIn   int64 // cross-node messages unwrapped and fanned out locally
}

// hierWorld is the shared state of one hierarchical launch: per-node shm
// worlds, per-node leader TCP endpoints, and the relay workers.
type hierWorld struct {
	topo  *Topology
	boxes []*mailbox // world-rank indexed
	shms  []*shmWorld
	eps   []*TCPEndpoint // node-indexed, owned by that node's leader
	tcps  []*tcpTransport
	cfg   shmConfig

	relayBytes atomic.Int64
	relayOut   atomic.Int64
	relayIn    atomic.Int64
	relayObs   []atomic.Pointer[obs.Counter] // node-indexed, leader telemetry

	relayWG sync.WaitGroup
	closed  atomic.Bool
}

func (w *hierWorld) stats() HierStats {
	return HierStats{
		RelayBytesOut: w.relayBytes.Load(),
		RelayMsgsOut:  w.relayOut.Load(),
		RelayMsgsIn:   w.relayIn.Load(),
	}
}

// hierTransport is one rank's view of the hierarchical world.
type hierTransport struct {
	hw   *hierWorld
	rank int // world rank
	node int
	shm  *shmTransport // this rank's producer view of its node's shm world
}

// Stats snapshots the world-wide relay counters (shared by all ranks).
func (t *hierTransport) Stats() HierStats { return t.hw.stats() }

// LeaderEndpointStats returns the TCP endpoint stats of each node's
// leader, node-indexed — the observable proof that inter-node flow
// count is O(nodes²): only len(topo.nodes) endpoints exist, each with
// at most NumNodes-1 outbound peer connections.
func (t *hierTransport) LeaderEndpointStats() []TCPStats {
	out := make([]TCPStats, len(t.hw.eps))
	for i, ep := range t.hw.eps {
		out[i] = ep.Stats()
	}
	return out
}

func (t *hierTransport) send(dst int, e envelope) error {
	topo := t.hw.topo
	if dst < 0 || dst >= topo.NumRanks() {
		return fmt.Errorf("mpi: hier world rank %d out of range", dst)
	}
	if topo.NodeOf(dst) == t.node {
		return t.shm.send(topo.localIndex(dst), e)
	}
	// Cross-node: wrap with the relay header; ownership of the eager
	// payload ends here (the wrapped copy travels on).
	renv := wrapRelay(dst, &e)
	if e.data != nil {
		PutBuffer(e.data)
	}
	if topo.IsLeader(t.rank) {
		return t.hw.forward(t.node, renv)
	}
	return t.shm.send(topo.localIndex(topo.Leader(t.node)), renv)
}

// sendTyped delegates to the node shm world for co-located
// destinations; a cross-node message is packed into an arena wire for the
// relay (the relay header prepend forces a copy anyway).
func (t *hierTransport) sendTyped(dst int, e envelope, parts []Part, n int) (bool, error) {
	topo := t.hw.topo
	if dst < 0 || dst >= topo.NumRanks() || topo.NodeOf(dst) != t.node {
		return false, nil
	}
	return t.shm.sendTyped(topo.localIndex(dst), e, parts, n)
}

func (t *hierTransport) close() error { return t.hw.close() }

// wrapRelay builds the relayCtx envelope carrying e to dst: a fresh
// arena buffer with the 40-byte relay header followed by the payload.
func wrapRelay(dst int, e *envelope) envelope {
	buf := GetBuffer(relayHeaderLen + len(e.data))
	binary.LittleEndian.PutUint32(buf[0:], uint32(dst))
	binary.LittleEndian.PutUint32(buf[4:], e.ctx)
	binary.LittleEndian.PutUint32(buf[8:], uint32(e.src))
	binary.LittleEndian.PutUint32(buf[12:], uint32(int32(e.tag)))
	binary.LittleEndian.PutUint64(buf[16:], e.seq)
	binary.LittleEndian.PutUint64(buf[24:], e.tc.Exchange)
	binary.LittleEndian.PutUint32(buf[32:], e.tc.Round)
	binary.LittleEndian.PutUint32(buf[36:], e.tc.Span)
	copy(buf[relayHeaderLen:], e.data)
	// The outer envelope is unsequenced; the original link sequence
	// number rides in the header and is restored at final delivery, so
	// duplicate suppression happens at the true destination mailbox.
	return envelope{ctx: relayCtx, src: e.src, tag: 0, data: buf, tc: e.tc}
}

// unwrapRelay parses a relayCtx payload back into the original envelope
// metadata and the inner payload (a sub-slice of data).
func unwrapRelay(data []byte) (dst int, inner envelope, err error) {
	if len(data) < relayHeaderLen {
		return 0, inner, fmt.Errorf("mpi: relay message of %d bytes is shorter than its header", len(data))
	}
	dst = int(binary.LittleEndian.Uint32(data[0:]))
	inner = envelope{
		ctx: binary.LittleEndian.Uint32(data[4:]),
		src: int(binary.LittleEndian.Uint32(data[8:])),
		tag: int(int32(binary.LittleEndian.Uint32(data[12:]))),
		seq: binary.LittleEndian.Uint64(data[16:]),
		tc: TraceContext{
			Exchange: binary.LittleEndian.Uint64(data[24:]),
			Round:    binary.LittleEndian.Uint32(data[32:]),
			Span:     binary.LittleEndian.Uint32(data[36:]),
		},
		data: data[relayHeaderLen:],
	}
	return dst, inner, nil
}

// forward ships one wrapped relay envelope from node's leader to the
// destination node's leader over TCP, counting the aggregation.
func (w *hierWorld) forward(node int, renv envelope) error {
	dst, _, err := unwrapRelay(renv.data)
	if err != nil {
		PutBuffer(renv.data)
		return err
	}
	dstNode := w.topo.NodeOf(dst)
	n := int64(len(renv.data))
	w.relayBytes.Add(n)
	w.relayOut.Add(1)
	w.relayObs[node].Load().Add(n)
	// tcpTransport takes ownership of renv.data (recycled post-write).
	return w.tcps[node].send(dstNode, renv)
}

// relayWorker is the per-leader goroutine serving node's relay traffic:
// outbound wrapped messages fanned in over shm from co-located ranks,
// and inbound wrapped messages arriving over TCP from other leaders. It
// exits when the leader's mailbox closes, after draining every relay
// message already queued.
func (w *hierWorld) relayWorker(node int) {
	defer w.relayWG.Done()
	topo := w.topo
	leader := topo.Leader(node)
	box := w.boxes[leader]
	// The leader's producer view of its node's shm world, for fan-out.
	out := &shmTransport{w: w.shms[node], src: topo.localIndex(leader)}
	for {
		renv, err := box.get(nil, relayCtx, AnySource, AnyTag, nil, leader)
		if err != nil {
			return
		}
		dst, inner, perr := unwrapRelay(renv.data)
		if perr != nil {
			obs.Warnf("mpi: node %d relay: %v (dropping)", node, perr)
			PutBuffer(renv.data)
			continue
		}
		if topo.NodeOf(dst) != node {
			// Outbound leg: aggregate onto the leader's TCP flow to the
			// destination node's leader.
			if err := w.forward(node, renv); err != nil && !errors.Is(err, ErrClosed) {
				obs.Warnf("mpi: node %d relay to rank %d: %v", node, dst, err)
				w.boxes[dst].markLost(inner.src, fmt.Errorf("mpi: relay to rank %d failed: %v: %w", dst, err, ErrPeerLost))
			}
			continue
		}
		// Inbound leg: unwrap and fan out to the final destination.
		w.relayIn.Add(1)
		if dst == leader {
			final := inner
			if len(inner.data) > 0 {
				final.data = GetBuffer(len(inner.data))
				copy(final.data, inner.data)
			} else {
				final.data = nil
			}
			box.put(final)
			PutBuffer(renv.data)
			continue
		}
		// write copies the payload into the destination ring and leaves
		// ownership of the wrapped buffer here.
		if err := out.write(topo.localIndex(dst), inner); err != nil {
			obs.Warnf("mpi: node %d fan-out to rank %d: %v", node, dst, err)
		}
		PutBuffer(renv.data)
	}
}

func (w *hierWorld) close() error {
	if w.closed.Swap(true) {
		return nil
	}
	for _, ep := range w.eps {
		ep.Close() //nolint:errcheck // teardown is best effort
	}
	for _, s := range w.shms {
		s.close() //nolint:errcheck
	}
	return nil
}

// attachObs mirrors a rank's hierarchical activity into its telemetry:
// the shm instruments always, plus the leader's TCP endpoint and relay
// counter when the rank leads its node.
func (t *hierTransport) attachObs(tel *Telemetry) {
	t.shm.attachObs(tel)
	if !t.hw.topo.IsLeader(t.rank) {
		return
	}
	t.hw.eps[t.node].attachObs(tel)
	if tel == nil {
		t.hw.relayObs[t.node].Store(nil)
		return
	}
	t.hw.relayObs[t.node].Store(tel.hierRelayBytes)
}

// RunHier executes body on n ranks placed by nodeOf, over the two-level
// shm+TCP transport.
func RunHier(n int, nodeOf func(rank int) int, body func(c *Comm) error) error {
	return Launch(n, body, WithTransport(TransportShm), WithTopology(nodeOf))
}

// launchHier runs body on n in-process ranks over the two-level
// transport; see Launch for the contract. topo must have at least two
// nodes (one node degenerates to launchShmTopo).
func launchHier(n int, topo *Topology, shmOpts ShmOptions, tcpOpts TCPOptions, inj FaultInjector, body func(c *Comm) error) error {
	if topo.NumRanks() != n {
		return fmt.Errorf("mpi: topology covers %d ranks, world has %d", topo.NumRanks(), n)
	}
	boxes := make([]*mailbox, n)
	for i := range boxes {
		boxes[i] = newMailbox()
	}
	nodes := topo.NumNodes()
	w := &hierWorld{
		topo:     topo,
		boxes:    boxes,
		shms:     make([]*shmWorld, nodes),
		eps:      make([]*TCPEndpoint, nodes),
		tcps:     make([]*tcpTransport, nodes),
		relayObs: make([]atomic.Pointer[obs.Counter], nodes),
	}
	fail := func(err error) error {
		w.close() //nolint:errcheck
		return err
	}
	// One shm world per node over that node's mailboxes.
	for node := 0; node < nodes; node++ {
		members := topo.Node(node)
		nodeBoxes := make([]*mailbox, len(members))
		for i, r := range members {
			nodeBoxes[i] = boxes[r]
		}
		sw, err := newShmWorld(len(members), shmOpts, nodeBoxes)
		if err != nil {
			return fail(err)
		}
		w.shms[node] = sw
	}
	// One TCP endpoint per node, listening into the leader's mailbox.
	if err := tcpOpts.Validate(); err != nil {
		return fail(err)
	}
	addrs := make([]string, nodes)
	for node := 0; node < nodes; node++ {
		ep, err := newTCPEndpointOn("127.0.0.1:0", boxes[topo.Leader(node)], tcpOpts)
		if err != nil {
			return fail(err)
		}
		ep.selfRank.Store(int32(topo.Leader(node)))
		w.eps[node] = ep
		addrs[node] = ep.Addr()
	}
	for node := 0; node < nodes; node++ {
		w.tcps[node] = &tcpTransport{ep: w.eps[node], addrs: addrs}
		w.relayWG.Add(1)
		go w.relayWorker(node)
	}

	trs := make([]transport, n)
	for rank := 0; rank < n; rank++ {
		node := topo.NodeOf(rank)
		var tr transport = &hierTransport{
			hw:   w,
			rank: rank,
			node: node,
			shm:  &shmTransport{w: w.shms[node], src: topo.localIndex(rank)},
		}
		if inj != nil {
			tr = newFaultTransport(tr, inj, rank, func(dst, src int, err error) {
				if dst >= 0 && dst < len(boxes) {
					boxes[dst].markLost(src, err)
				}
			})
		}
		trs[rank] = tr
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := &Comm{
				rank:     rank,
				group:    identityGroup(n),
				tr:       trs[rank],
				box:      boxes[rank],
				counters: newTraffic(n),
				topo:     topo,
			}
			c.world = c
			if err := body(c); err != nil {
				errs[rank] = fmt.Errorf("rank %d: %w", rank, err)
				for _, b := range boxes {
					b.close(fmt.Errorf("mpi: rank %d failed: %w", rank, err))
				}
			}
		}(rank)
	}
	wg.Wait()
	// Fault transports flush their queues into the raw transports first;
	// then closing the mailboxes releases the relay workers (which drain
	// every relay message already queued before exiting), and finally the
	// endpoints and rings go down.
	for _, tr := range trs {
		if ft, ok := tr.(*faultTransport); ok {
			ft.close() //nolint:errcheck
		}
	}
	for _, b := range boxes {
		b.close(nil)
	}
	w.relayWG.Wait()
	w.close() //nolint:errcheck
	return errors.Join(errs...)
}

// NodesOf is a convenience nodeOf for WithTopology: it spreads n ranks
// over the given number of nodes in contiguous blocks (ranks 0..k-1 on
// node 0, and so on), the layout cluster schedulers produce.
func NodesOf(n, numNodes int) func(rank int) int {
	if numNodes < 1 {
		numNodes = 1
	}
	per := (n + numNodes - 1) / numNodes
	return func(rank int) int { return rank / per }
}
