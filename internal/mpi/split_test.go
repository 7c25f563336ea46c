package mpi

import (
	"errors"
	"fmt"
	"testing"
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
