package experiments

import (
	"flag"
	"fmt"

	"ddr/internal/chaos"
	"ddr/internal/core"
	"ddr/internal/mpi"
)

// Flags is the set of command-line options the experiment binaries share:
// rank transport, exchange pipelining and the deterministic fault
// schedule. Bind it to the binary's
// FlagSet before Parse, read the fields (and call Apply) after.
type Flags struct {
	// Transport names the rank transport ("" is the in-process mailbox).
	Transport string
	// PipelineDepth is the requested exchange depth: 0 keeps the library
	// default (core.DefaultPipelineDepth), 1 forces strictly serial rounds,
	// k >= 2 runs up to k exchange rounds in flight.
	PipelineDepth int

	Chaos  chaos.Options
	severs string // -chaos-sever, parsed into Chaos.Severs by Apply
}

// Bind defines every shared flag on fs.
func (f *Flags) Bind(fs *flag.FlagSet) {
	fs.StringVar(&f.Transport, "transport", "",
		"rank transport: inproc (default), tcp, or shm")
	fs.IntVar(&f.PipelineDepth, "pipeline-depth", 0,
		"exchange rounds in flight per redistribution: 0 = library default, 1 = serial, k>=2 = pipelined (clamped by -mem-budget)")

	fs.Uint64Var(&f.Chaos.Seed, "chaos-seed", 1,
		"seed of the deterministic fault schedule; equal seeds reproduce identical faults")
	fs.Float64Var(&f.Chaos.DropProb, "chaos-drop", 0,
		"probability per delivery attempt of dropping the message (the transport retries with backoff)")
	fs.Float64Var(&f.Chaos.DelayProb, "chaos-delay", 0,
		"probability per message of delaying its delivery")
	fs.DurationVar(&f.Chaos.DelayMax, "chaos-delay-max", 0,
		"upper bound of injected delivery delays (0 = 2ms default)")
	fs.Float64Var(&f.Chaos.DupProb, "chaos-dup", 0,
		"probability per message of delivering it twice (deduplicated by the receiver)")
	fs.Float64Var(&f.Chaos.ReorderProb, "chaos-reorder", 0,
		"probability per message of letting the next queued message overtake it")
	fs.Float64Var(&f.Chaos.StallProb, "chaos-stall", 0,
		"probability per message of stalling its link for -chaos-stall-for")
	fs.DurationVar(&f.Chaos.StallFor, "chaos-stall-for", 0,
		"duration of injected link stalls (0 = 20ms default)")
	fs.StringVar(&f.severs, "chaos-sever", "",
		"comma-separated link cuts of the form from>to@after, e.g. 0>1@5")
	fs.IntVar(&f.Chaos.TagFloor, "chaos-tag-floor", core.ExchangeTagBase,
		"restrict faults to messages with tag >= this value (default spares the mapping collectives; 0 faults everything)")
}

// Apply, called after Parse, rejects an unknown -transport, and builds the
// deterministic fault injector and installs it process-wide so every
// world the binary runs carries the schedule.
// With no chaos flag set it installs nothing and the transports stay on
// their fault-free fast path.
func (f *Flags) Apply() error {
	if _, err := transportLaunchOpts(f.Transport); err != nil {
		return err
	}
	var err error
	if f.Chaos.Severs, err = chaos.ParseSevers(f.severs); err != nil {
		return err
	}
	if inj := chaos.New(f.Chaos); inj.Enabled() {
		mpi.SetDefaultFaultInjector(inj)
	}
	return nil
}

// transportLaunchOpts maps a transport name to the launch options the
// experiment worlds pass to mpi.Launch.
func transportLaunchOpts(transport string) ([]mpi.LaunchOption, error) {
	switch transport {
	case "", "inproc":
		return nil, nil
	case "tcp":
		return []mpi.LaunchOption{mpi.WithTransport(mpi.TransportTCP)}, nil
	case "shm":
		return []mpi.LaunchOption{mpi.WithTransport(mpi.TransportShm)}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown transport %q (have inproc, tcp, shm)", transport)
	}
}
