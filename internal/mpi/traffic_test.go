package mpi

import (
	"fmt"
	"testing"
)

func TestTrafficCountsP2P(t *testing.T) {
	forEachTransport(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, make([]byte, 100)); err != nil {
				return err
			}
			if err := c.Send(1, 2, make([]byte, 50)); err != nil {
				return err
			}
			s := c.Traffic()
			if s.MessagesSent != 2 || s.BytesSent != 150 {
				return fmt.Errorf("sender stats %+v", s)
			}
			return nil
		}
		if _, _, _, err := c.Recv(0, 1); err != nil {
			return err
		}
		if _, _, _, err := c.Recv(0, 2); err != nil {
			return err
		}
		s := c.Traffic()
		if s.MessagesRecv != 2 || s.BytesRecv != 150 {
			return fmt.Errorf("receiver stats %+v", s)
		}
		return nil
	})
}

func TestTrafficSharedAcrossSplit(t *testing.T) {
	err := Launch(2, func(c *Comm) error {
		sub, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		before := c.Traffic().BytesSent
		if c.Rank() == 0 {
			if err := sub.Send(1, 3, make([]byte, 64)); err != nil {
				return err
			}
			// The parent sees the sub-communicator's send.
			if s := c.Traffic(); s.BytesSent-before != 64 {
				return fmt.Errorf("parent stats %+v", s)
			}
			return nil
		}
		_, _, _, err = sub.Recv(0, 3)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTrafficCollectivesCounted(t *testing.T) {
	err := Launch(4, func(c *Comm) error {
		before := c.Traffic()
		if _, err := c.Allgather(make([]byte, 10)); err != nil {
			return err
		}
		s := c.Traffic()
		if s.MessagesSent == before.MessagesSent && s.MessagesRecv == before.MessagesRecv {
			return fmt.Errorf("collective produced no counted traffic on rank %d", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTrafficNilSafe(t *testing.T) {
	var c Comm
	s := c.Traffic()
	if s.MessagesSent != 0 || s.BytesSent != 0 || s.MessagesRecv != 0 || s.BytesRecv != 0 {
		t.Errorf("zero comm stats %+v", s)
	}
	if s.PeerBytesSent != nil || s.PeerBytesRecv != nil {
		t.Errorf("zero comm should have no peer matrices: %+v", s)
	}
}

func TestTrafficPerPeerMatrix(t *testing.T) {
	forEachTransport(t, 3, func(c *Comm) error {
		// Rank 0 sends distinct sizes to 1 and 2.
		switch c.Rank() {
		case 0:
			if err := c.Send(1, 1, make([]byte, 100)); err != nil {
				return err
			}
			if err := c.Send(2, 1, make([]byte, 200)); err != nil {
				return err
			}
			s := c.Traffic()
			if s.PeerBytesSent[1] != 100 || s.PeerBytesSent[2] != 200 || s.PeerBytesSent[0] != 0 {
				return fmt.Errorf("sender matrix %v", s.PeerBytesSent)
			}
			if s.BytesSent != 300 {
				return fmt.Errorf("total %d", s.BytesSent)
			}
		default:
			if _, _, _, err := c.Recv(0, 1); err != nil {
				return err
			}
			s := c.Traffic()
			want := int64(100 * c.Rank())
			if s.PeerBytesRecv[0] != want {
				return fmt.Errorf("rank %d recv matrix %v, want %d from rank 0", c.Rank(), s.PeerBytesRecv, want)
			}
		}
		return nil
	})
}

// The per-peer matrices must decompose the collective totals exactly: a
// collective is nothing but point-to-point messages, so on every rank
// sum(PeerBytesSent) == BytesSent (and likewise for receives), and
// across ranks the matrices are transposes of one another.
func TestCollectiveTrafficDecomposes(t *testing.T) {
	const n = 4
	stats := make([]TrafficStats, n)
	err := Launch(n, func(c *Comm) error {
		if _, err := c.Allgather(make([]byte, 32*(c.Rank()+1))); err != nil {
			return err
		}
		if _, err := c.Gather(n-1, make([]byte, 8+c.Rank())); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		stats[c.Rank()] = c.Traffic()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range stats {
		var sent, recv int64
		for _, b := range s.PeerBytesSent {
			sent += b
		}
		for _, b := range s.PeerBytesRecv {
			recv += b
		}
		if sent != s.BytesSent {
			t.Errorf("rank %d: peer sends sum to %d, total says %d", r, sent, s.BytesSent)
		}
		if recv != s.BytesRecv {
			t.Errorf("rank %d: peer recvs sum to %d, total says %d", r, recv, s.BytesRecv)
		}
	}
	// What a sent to b, b must have received from a. (Everything posted
	// was consumed: Allgather/Gather/Barrier leave no message queued.)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if got, want := stats[b].PeerBytesRecv[a], stats[a].PeerBytesSent[b]; got != want {
				t.Errorf("rank %d -> %d: sent %d but received %d", a, b, want, got)
			}
		}
	}
}
