package mpi

import (
	"fmt"
	"testing"
)

func TestSendrecvRingShift(t *testing.T) {
	forEachTransport(t, 5, func(c *Comm) error {
		n := c.Size()
		dst := (c.Rank() + 1) % n
		src := (c.Rank() - 1 + n) % n
		got, err := c.Sendrecv(dst, src, 4, []byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		if int(got[0]) != src {
			return fmt.Errorf("rank %d received %d, want %d", c.Rank(), got[0], src)
		}
		return nil
	})
}

func TestSendrecvSelf(t *testing.T) {
	err := Launch(1, func(c *Comm) error {
		got, err := c.Sendrecv(0, 0, 9, []byte("self"))
		if err != nil {
			return err
		}
		if string(got) != "self" {
			return fmt.Errorf("got %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
