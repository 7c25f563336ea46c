package mpi

import (
	"errors"
	"fmt"
	"testing"

	"ddr/internal/datatype"
	"ddr/internal/grid"
)

func TestSplitGroupsAndRanks(t *testing.T) {
	forEachTransport(t, 6, func(c *Comm) error {
		// Evens and odds, ordered by descending parent rank via negative key.
		sub, err := c.Split(c.Rank()%2, -c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		// Keys are -rank, so the highest parent rank becomes sub rank 0.
		wantRank := map[int]int{4: 0, 2: 1, 0: 2, 5: 0, 3: 1, 1: 2}[c.Rank()]
		if sub.Rank() != wantRank {
			return fmt.Errorf("parent %d got sub rank %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		// The sub-communicator must work for collectives.
		sum, err := sub.AllreduceInt64([]int64{int64(c.Rank())}, OpSum)
		if err != nil {
			return err
		}
		want := int64(0 + 2 + 4)
		if c.Rank()%2 == 1 {
			want = 1 + 3 + 5
		}
		if sum[0] != want {
			return fmt.Errorf("group sum %d, want %d", sum[0], want)
		}
		return nil
	})
}

func TestSplitUndefinedColor(t *testing.T) {
	err := Launch(4, func(c *Comm) error {
		color := 0
		if c.Rank() == 3 {
			color = -1
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 3 {
			if sub != nil {
				return errors.New("undefined color returned a communicator")
			}
			return nil
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d, want 3", sub.Size())
		}
		return sub.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitContextIsolation(t *testing.T) {
	// A message sent on the parent with tag T must not be received by a
	// Recv on the child with the same tag, even between the same ranks.
	err := Launch(2, func(c *Comm) error {
		sub, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := c.Send(1, 42, []byte("parent")); err != nil {
				return err
			}
			return sub.Send(1, 42, []byte("child"))
		}
		childMsg, _, _, err := sub.Recv(0, 42)
		if err != nil {
			return err
		}
		if string(childMsg) != "child" {
			return fmt.Errorf("child comm received %q", childMsg)
		}
		parentMsg, _, _, err := c.Recv(0, 42)
		if err != nil {
			return err
		}
		if string(parentMsg) != "parent" {
			return fmt.Errorf("parent comm received %q", parentMsg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitTranslatesWorldRanks(t *testing.T) {
	err := Launch(4, func(c *Comm) error {
		sub, err := c.Split(c.Rank()/2, 0)
		if err != nil {
			return err
		}
		// Group {0,1} and group {2,3}; sub rank i maps to world rank.
		want := (c.Rank()/2)*2 + sub.Rank()
		if sub.WorldRank(sub.Rank()) != want {
			return fmt.Errorf("world rank %d, want %d", sub.WorldRank(sub.Rank()), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAlltoallwE1 drives Alltoallw directly with the paper's E1 geometry:
// four ranks each own rows y=rank and y=rank+4 of an 8x8 byte array and
// need their quadrant. Here we exchange the first chunk (row y=rank) only,
// which populates the top or bottom half of each quadrant.
func TestAlltoallwE1(t *testing.T) {
	forEachTransport(t, 4, func(c *Comm) error {
		const w, h = 8, 8
		rank := c.Rank()
		chunk := grid.Box2(0, rank, w, 1)
		sendBuf := make([]byte, w)
		for x := 0; x < w; x++ {
			sendBuf[x] = byte(rank*w + x) // value encodes (y*w + x)
		}
		need := grid.Box2(4*(rank%2), 4*(rank/2), 4, 4)
		recvBuf := make([]byte, need.Volume())

		sendTypes := make([]datatype.Type, 4)
		recvTypes := make([]datatype.Type, 4)
		for peer := 0; peer < 4; peer++ {
			peerNeed := grid.Box2(4*(peer%2), 4*(peer/2), 4, 4)
			if ov, ok := chunk.Intersect(peerNeed); ok {
				st, err := datatype.NewSubarray(1, chunk, ov)
				if err != nil {
					return err
				}
				sendTypes[peer] = st
			} else {
				sendTypes[peer] = datatype.Empty{}
			}
			peerChunk := grid.Box2(0, peer, w, 1)
			if ov, ok := peerChunk.Intersect(need); ok {
				rt, err := datatype.NewSubarray(1, need, ov)
				if err != nil {
					return err
				}
				recvTypes[peer] = rt
			} else {
				recvTypes[peer] = datatype.Empty{}
			}
		}
		if err := c.Alltoallw(sendBuf, sendTypes, recvBuf, recvTypes); err != nil {
			return err
		}
		// Rows y in [0,4) live in quadrants 0/1; each rank received the row
		// of its quadrant that some rank owned as chunk 0 (y = 0..3).
		for y := 0; y < 4; y++ {
			gy := need.Offset[1] + y
			if gy >= 4 {
				continue // provided by the second chunk, not exchanged here
			}
			for x := 0; x < 4; x++ {
				gx := need.Offset[0] + x
				want := byte(gy*w + gx)
				if got := recvBuf[y*4+x]; got != want {
					return fmt.Errorf("rank %d element (%d,%d) = %d, want %d", rank, gx, gy, got, want)
				}
			}
		}
		return nil
	})
}

func TestAlltoallwSizeMismatchDetected(t *testing.T) {
	err := Launch(2, func(c *Comm) error {
		send := []datatype.Type{datatype.Empty{}, datatype.Empty{}}
		recv := []datatype.Type{datatype.Empty{}, datatype.Empty{}}
		if c.Rank() == 0 {
			send[0] = datatype.Contiguous{Bytes: 4} // self exchange 4 -> 0
		}
		err := c.Alltoallw(make([]byte, 8), send, make([]byte, 8), recv)
		if c.Rank() == 0 && err == nil {
			return errors.New("self size mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
