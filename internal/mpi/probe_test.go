package mpi

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestProbeThenRecv(t *testing.T) {
	forEachTransport(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 9, []byte("hello"))
		}
		from, tag, size, err := c.Probe(0, 9)
		if err != nil {
			return err
		}
		if from != 0 || tag != 9 || size != 5 {
			return fmt.Errorf("probe = %d/%d/%d", from, tag, size)
		}
		// Probing does not consume: the message must still be receivable,
		// and probing again must see the same message.
		from2, _, size2, err := c.Probe(AnySource, AnyTag)
		if err != nil {
			return err
		}
		if from2 != 0 || size2 != 5 {
			return fmt.Errorf("second probe = %d/%d", from2, size2)
		}
		data, _, _, err := c.Recv(0, 9)
		if err != nil {
			return err
		}
		if string(data) != "hello" {
			return fmt.Errorf("recv %q", data)
		}
		return nil
	})
}

func TestIprobe(t *testing.T) {
	err := Launch(2, func(c *Comm) error {
		if c.Rank() == 0 {
			// Nothing has been sent to rank 0 on tag 3 yet.
			_, _, _, ok, err := c.Iprobe(1, 3)
			if err != nil {
				return err
			}
			if ok {
				return errors.New("Iprobe saw a phantom message")
			}
			if err := c.Send(1, 4, nil); err != nil { // release rank 1
				return err
			}
			// Wait for the real message to arrive.
			for {
				_, _, size, ok, err := c.Iprobe(1, 3)
				if err != nil {
					return err
				}
				if ok {
					if size != 2 {
						return fmt.Errorf("size %d", size)
					}
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
			_, _, _, rerr := c.Recv(1, 3)
			return rerr
		}
		if _, _, _, err := c.Recv(0, 4); err != nil {
			return err
		}
		return c.Send(0, 3, []byte{1, 2})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbeValidation(t *testing.T) {
	err := Launch(1, func(c *Comm) error {
		if _, _, _, err := c.Probe(5, 0); err == nil {
			return errors.New("bad source accepted")
		}
		if _, _, _, _, err := c.Iprobe(-7, 0); err == nil {
			return errors.New("bad Iprobe source accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
