package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func TestScatterv(t *testing.T) {
	forEachTransport(t, 4, func(c *Comm) error {
		var parts [][]byte
		if c.Rank() == 1 {
			parts = make([][]byte, 4)
			for r := range parts {
				parts[r] = bytes.Repeat([]byte{byte(r + 1)}, r+1)
			}
		}
		got, err := c.Scatterv(1, parts)
		if err != nil {
			return err
		}
		want := bytes.Repeat([]byte{byte(c.Rank() + 1)}, c.Rank()+1)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("rank %d got %v", c.Rank(), got)
		}
		return nil
	})
}

func TestScattervValidation(t *testing.T) {
	err := Launch(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if _, err := c.Scatterv(0, [][]byte{{1}}); err == nil {
				return errors.New("short parts accepted")
			}
			// Unblock rank 1, which posted a receive for the scatter.
			return c.send(nil, 1, -3, nil, nil, nil)
		}
		_, err := c.Scatterv(0, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	err = Launch(1, func(c *Comm) error {
		if _, err := c.Scatterv(7, nil); err == nil {
			return errors.New("bad root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceFloat64(t *testing.T) {
	forEachTransport(t, 5, func(c *Comm) error {
		r := float64(c.Rank())
		got, err := c.ReduceFloat64(2, []float64{r, -r}, OpSum)
		if err != nil {
			return err
		}
		if c.Rank() != 2 {
			if got != nil {
				return errors.New("non-root received a reduction")
			}
			return nil
		}
		if got[0] != 10 || got[1] != -10 {
			return fmt.Errorf("sum = %v", got)
		}
		return nil
	})
}

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

func TestDupIsolation(t *testing.T) {
	err := Launch(2, func(c *Comm) error {
		dup, err := c.Dup()
		if err != nil {
			return err
		}
		if dup.Size() != c.Size() || dup.Rank() != c.Rank() {
			return fmt.Errorf("dup group mismatch: %d/%d", dup.Rank(), dup.Size())
		}
		// Same-tag messages on parent and dup must not cross.
		if c.Rank() == 0 {
			if err := dup.Send(1, 5, []byte("dup")); err != nil {
				return err
			}
			return c.Send(1, 5, []byte("parent"))
		}
		parentMsg, _, _, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		dupMsg, _, _, err := dup.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(parentMsg) != "parent" || string(dupMsg) != "dup" {
			return fmt.Errorf("crossed: %q / %q", parentMsg, dupMsg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
