package mpi

import (
	"fmt"
	"testing"
)

// TestSendrecvRingShift: every rank posts its send to the next rank and
// then blocks receiving from the previous one — the deadlock-free shift
// of MPI_Sendrecv — on every transport.
func TestSendrecvRingShift(t *testing.T) {
	forEachTransport(t, 5, func(c *Comm) error {
		n := c.Size()
		dst := (c.Rank() + 1) % n
		src := (c.Rank() - 1 + n) % n
		req := c.Isend(dst, 4, []byte{byte(c.Rank())})
		got, _, _, err := c.Recv(src, 4)
		if err != nil {
			return err
		}
		if _, _, _, err := req.Wait(); err != nil {
			return err
		}
		if int(got[0]) != src {
			return fmt.Errorf("rank %d received %d, want %d", c.Rank(), got[0], src)
		}
		return nil
	})
}

// TestSendrecvSelf: a rank's posted send to itself is what its own
// blocking receive gets.
func TestSendrecvSelf(t *testing.T) {
	err := Launch(1, func(c *Comm) error {
		req := c.Isend(0, 9, []byte("self"))
		got, _, _, err := c.Recv(0, 9)
		if err != nil {
			return err
		}
		if _, _, _, err := req.Wait(); err != nil {
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
