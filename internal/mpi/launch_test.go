package mpi

import (
	"sync/atomic"
	"testing"
)

// countingInjector records how many delivery attempts consulted it while
// injecting nothing.
type countingInjector struct{ calls atomic.Int64 }

func (ci *countingInjector) FaultFor(src, dst, tag int, seq uint64, attempt int) Fault {
	ci.calls.Add(1)
	return Fault{}
}

// launchRing is a minimal world body: every rank sends its rank to the
// next and checks the value received from the previous.
func launchRing(t *testing.T) func(c *Comm) error {
	return func(c *Comm) error {
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() + c.Size() - 1) % c.Size()
		if err := c.Send(next, 7, []byte{byte(c.Rank())}); err != nil {
			return err
		}
		data, _, _, err := c.Recv(prev, 7)
		if err != nil {
			return err
		}
		if len(data) != 1 || int(data[0]) != prev {
			t.Errorf("rank %d received %v from %d", c.Rank(), data, prev)
		}
		return nil
	}
}

func TestLaunchDefaultsToInProc(t *testing.T) {
	if err := Launch(4, launchRing(t)); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchTCPTransport(t *testing.T) {
	if err := Launch(4, launchRing(t), WithTransport(TransportTCP)); err != nil {
		t.Fatal(err)
	}
	if err := Launch(4, launchRing(t), WithTCPOptions(DefaultTCPOptions())); err != nil {
		t.Fatal(err)
	}
}

// TestLaunchInjectorPrecedence pins the three-way injector contract:
// omitting WithFaultInjector uses the process default, passing one
// overrides it, and passing an explicit nil runs fault-free even with a
// default installed.
func TestLaunchInjectorPrecedence(t *testing.T) {
	def := &countingInjector{}
	SetDefaultFaultInjector(def)
	defer SetDefaultFaultInjector(nil)

	if err := Launch(2, launchRing(t)); err != nil {
		t.Fatal(err)
	}
	if def.calls.Load() == 0 {
		t.Fatal("default injector not consulted when WithFaultInjector is omitted")
	}

	base := def.calls.Load()
	own := &countingInjector{}
	if err := Launch(2, launchRing(t), WithFaultInjector(own)); err != nil {
		t.Fatal(err)
	}
	if own.calls.Load() == 0 {
		t.Fatal("explicit injector not consulted")
	}
	if def.calls.Load() != base {
		t.Fatal("default injector consulted despite explicit WithFaultInjector")
	}

	if err := Launch(2, launchRing(t), WithFaultInjector(nil)); err != nil {
		t.Fatal(err)
	}
	if def.calls.Load() != base {
		t.Fatal("default injector consulted despite explicit WithFaultInjector(nil)")
	}
}
