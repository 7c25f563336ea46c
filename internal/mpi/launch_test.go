package mpi

import (
	"sync/atomic"
	"testing"
)

// minShmRing is the smallest ring the shm tests run: one page.
const minShmRing = 4 << 10

// wholeRecords is the smallest ring with the chunk threshold as high as
// one record can carry, so every message that fits the ring goes whole.
var wholeRecords = shmConfig{
	ringSize:       minShmRing,
	chunkThreshold: minShmRing - shmMaxHeader - shmWordSize,
	chunkSize:      minShmRing / 4,
}

// withTCP runs a world on tcp with the wire geometry cfg — how a test
// reaches the chunk and backpressure paths with small payloads. Worlds
// outside the tests always run defaultTCPConfig.
func withTCP(cfg tcpConfig) LaunchOption {
	return func(c *launchConfig) {
		c.transport = TransportTCP
		c.tcp = cfg
	}
}

// withShm runs a world on shm with the ring geometry cfg.
func withShm(cfg shmConfig) LaunchOption {
	return func(c *launchConfig) {
		c.transport = TransportShm
		c.shm = cfg
	}
}

// tcpChunked is the default tcp geometry with chunk streams from
// threshold bytes up, in chunks of size bytes.
func tcpChunked(threshold, size int) tcpConfig {
	cfg := defaultTCPConfig
	cfg.chunkThreshold, cfg.chunkSize = threshold, size
	return cfg
}

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
