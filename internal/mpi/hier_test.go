package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestTopologyConstruction covers node densification, leader election,
// and fingerprint behaviour.
func TestTopologyConstruction(t *testing.T) {
	// Sparse, out-of-order node ids densify in first-appearance order.
	topo, err := NewTopology(6, func(rank int) int { return []int{7, 7, 2, 2, 9, 7}[rank] })
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNodes() != 3 || topo.NumRanks() != 6 {
		t.Fatalf("topology %d nodes / %d ranks, want 3/6", topo.NumNodes(), topo.NumRanks())
	}
	wantNode := []int{0, 0, 1, 1, 2, 0}
	for rank, want := range wantNode {
		if topo.NodeOf(rank) != want {
			t.Errorf("NodeOf(%d) = %d, want %d", rank, topo.NodeOf(rank), want)
		}
	}
	if topo.Leader(0) != 0 || topo.Leader(1) != 2 || topo.Leader(2) != 4 {
		t.Errorf("leaders = %d,%d,%d", topo.Leader(0), topo.Leader(1), topo.Leader(2))
	}
	if !topo.IsLeader(0) || topo.IsLeader(1) {
		t.Error("leader predicate wrong")
	}
	if topo.Fingerprint() == 0 {
		t.Error("multi-node fingerprint is zero")
	}
	same, _ := NewTopology(6, func(rank int) int { return []int{1, 1, 4, 4, 5, 1}[rank] })
	if same.Fingerprint() != topo.Fingerprint() {
		t.Error("equivalent placements fingerprint differently")
	}
	other, _ := NewTopology(6, NodesOf(6, 2))
	if other.Fingerprint() == topo.Fingerprint() {
		t.Error("different placements share a fingerprint")
	}
	if (*Topology)(nil).Fingerprint() != 0 {
		t.Error("nil topology fingerprint not zero")
	}
	if _, err := NewTopology(3, nil); err == nil {
		t.Error("nil nodeOf accepted")
	}
}

// TestHierSmoke is the acceptance smoke: 2 nodes × 4 ranks drive a full
// all-to-all storm, every payload arrives intact, and the leader
// endpoint stats prove aggregation — each node's endpoint dials at most
// nodes-1 peers (O(nodes²) flows world-wide) even though all 8 ranks
// exchanged with all 7 others (O(P²) rank pairs), and only leaders
// carry relayed bytes.
func TestHierSmoke(t *testing.T) {
	const (
		ranks = 8
		nodes = 2
		msgs  = 10
		size  = 2048
	)
	err := RunHier(ranks, NodesOf(ranks, nodes), func(c *Comm) error {
		for i := 0; i < msgs; i++ {
			for peer := 0; peer < c.Size(); peer++ {
				if peer == c.Rank() {
					continue
				}
				if err := c.Send(peer, i, shmPattern(c.Rank(), i, peer, size)); err != nil {
					return err
				}
			}
		}
		for i := 0; i < msgs; i++ {
			for peer := 0; peer < c.Size(); peer++ {
				if peer == c.Rank() {
					continue
				}
				data, _, _, err := c.Recv(peer, i)
				if err != nil {
					return err
				}
				if !bytes.Equal(data, shmPattern(peer, i, c.Rank(), size)) {
					return fmt.Errorf("rank %d: corrupt payload from %d round %d", c.Rank(), peer, i)
				}
				PutBuffer(data)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		ht, ok := c.tr.(*hierTransport)
		if !ok {
			return fmt.Errorf("transport is %T, want *hierTransport", c.tr)
		}
		// The O(nodes²) assertion: every leader endpoint dialed at most
		// nodes-1 peers, regardless of the O(P²) rank traffic it carried.
		for node, st := range ht.LeaderEndpointStats() {
			if st.PeerConnections > nodes-1 {
				return fmt.Errorf("node %d endpoint holds %d peer links, want <= %d",
					node, st.PeerConnections, nodes-1)
			}
			if st.WireOut == 0 {
				return fmt.Errorf("node %d leader endpoint carried no bytes", node)
			}
		}
		hs := ht.Stats()
		if c.Topology().IsLeader(c.Rank()) {
			if hs.RelayMsgsOut == 0 || hs.RelayMsgsIn == 0 {
				return fmt.Errorf("leader %d relayed nothing: %+v", c.Rank(), hs)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHierLargeChunkedRelay pushes payloads above the shm chunk
// threshold across nodes, exercising chunked rings on both shm legs and
// chunked TCP frames on the leader hop.
func TestHierLargeChunkedRelay(t *testing.T) {
	const size = 2 << 20 // 2 MiB: chunked everywhere
	err := RunHier(4, NodesOf(4, 2), func(c *Comm) error {
		peer := (c.Rank() + 2) % 4 // always cross-node under NodesOf(4,2)
		if err := c.Send(peer, 1, shmPattern(c.Rank(), 1, 0, size)); err != nil {
			return err
		}
		data, _, _, err := c.Recv(peer, 1)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, shmPattern(peer, 1, 0, size)) {
			return fmt.Errorf("rank %d: cross-node bulk payload corrupt", c.Rank())
		}
		PutBuffer(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHierCollectivesAndSplit runs collectives and a communicator split
// over the hierarchical transport — derived communicators must keep the
// topology and keep working across node boundaries.
func TestHierCollectivesAndSplit(t *testing.T) {
	err := RunHier(6, NodesOf(6, 3), func(c *Comm) error {
		sum, err := c.AllreduceInt64([]int64{int64(c.Rank())}, OpSum)
		if err != nil {
			return err
		}
		if sum[0] != 15 {
			return fmt.Errorf("allreduce sum = %d", sum[0])
		}
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub.Topology() == nil {
			return errors.New("split dropped the topology")
		}
		all, err := sub.Allgather([]byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		if len(all) != 3 {
			return fmt.Errorf("split world size %d, want 3", len(all))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHierErrorPropagation checks a failing rank unblocks cross-node
// receivers instead of deadlocking the relay.
func TestHierErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	err := RunHier(4, NodesOf(4, 2), func(c *Comm) error {
		if c.Rank() == 3 {
			return boom
		}
		_, _, _, err := c.Recv(3, 0)
		return err
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}
