package experiments

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"ddr/internal/mpi"
)

// binaryFlagSet builds a FlagSet shaped like one of the command-line
// binaries: the binary's own flags first, then the shared Flags bound
// beside them.
func binaryFlagSet(t *testing.T, name string, define func(fs *flag.FlagSet)) (*flag.FlagSet, *Flags) {
	t.Helper()
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	define(fs)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: binding the shared flags panicked: %v", name, r)
		}
	}()
	shared := &Flags{}
	shared.Bind(fs)
	return fs, shared
}

// TestFlagRegistrarsCompose binds the shared flags beside both binaries'
// own flag shapes (no name may collide), parses a command line and checks
// the values resolve and apply.
func TestFlagRegistrarsCompose(t *testing.T) {
	// Apply installs a process-wide fault injector; restore the
	// fault-free state so later tests in this package are unaffected.
	t.Cleanup(func() { mpi.SetDefaultFaultInjector(nil) })
	t.Run("ddrbench", func(t *testing.T) {
		fs, shared := binaryFlagSet(t, "ddrbench", func(fs *flag.FlagSet) {
			fs.Int("table", 0, "")
			fs.Bool("all", false, "")
			fs.String("out", "ddrbench-out", "")
		})
		args := []string{
			"-transport=tcp",
			"-chaos-seed=7", "-chaos-drop=0.25", "-chaos-sever=0>1@5",
			"-pipeline-depth=4",
		}
		if err := fs.Parse(args); err != nil {
			t.Fatalf("parse: %v", err)
		}
		if shared.PipelineDepth != 4 {
			t.Fatalf("pipeline depth = %d, want 4", shared.PipelineDepth)
		}
		if shared.Transport != "tcp" {
			t.Fatalf("transport = %q, want tcp", shared.Transport)
		}
		if opts, err := transportLaunchOpts(shared.Transport); err != nil || len(opts) != 1 {
			t.Fatalf("tcp launch options = %d (%v), want 1", len(opts), err)
		}
		if err := shared.Apply(); err != nil {
			t.Fatalf("apply: %v", err)
		}
		if c := shared.Chaos; c.Seed != 7 || c.DropProb != 0.25 || len(c.Severs) != 1 {
			t.Fatalf("chaos options = %+v", c)
		}
	})
	t.Run("lbmsim", func(t *testing.T) {
		fs, shared := binaryFlagSet(t, "lbmsim", func(fs *flag.FlagSet) {
			fs.Int("sim", 8, "")
			fs.Int("viz", 2, "")
			fs.String("role", "both", "")
			fs.String("fields", "vorticity", "")
		})
		if err := fs.Parse([]string{"-sim=4", "-transport=shm", "-chaos-delay=0.1", "-chaos-delay-max=3ms"}); err != nil {
			t.Fatalf("parse: %v", err)
		}
		if shared.Transport != "shm" || shared.PipelineDepth != 0 {
			t.Fatalf("transport = %q, depth %d, want shm, 0", shared.Transport, shared.PipelineDepth)
		}
		if shared.Chaos.DelayMax != 3*time.Millisecond || shared.Chaos.Seed != 1 {
			t.Fatalf("chaos options = %+v", shared.Chaos)
		}
		if err := shared.Apply(); err != nil {
			t.Fatalf("apply: %v", err)
		}
	})
	t.Run("bad-sever", func(t *testing.T) {
		fs, shared := binaryFlagSet(t, "bad", func(*flag.FlagSet) {})
		if err := fs.Parse([]string{"-chaos-sever=nonsense"}); err != nil {
			t.Fatalf("parse: %v", err)
		}
		if err := shared.Apply(); err == nil {
			t.Fatal("apply accepted a malformed -chaos-sever")
		}
	})
	t.Run("no-transport-tuning", func(t *testing.T) {
		// The transports run their measured defaults: no socket tuning and
		// no -tcp shorthand for -transport=tcp.
		for _, arg := range []string{"-tcp-queue=64", "-tcp"} {
			fs, _ := binaryFlagSet(t, "ddrbench", func(*flag.FlagSet) {})
			fs.SetOutput(io.Discard)
			if err := fs.Parse([]string{arg}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
				t.Errorf("%s: parse = %v, want an undefined flag", arg, err)
			}
		}
	})
	t.Run("unknown-transport", func(t *testing.T) {
		fs, shared := binaryFlagSet(t, "bad", func(*flag.FlagSet) {})
		if err := fs.Parse([]string{"-transport=hier"}); err != nil {
			t.Fatalf("parse: %v", err)
		}
		if err := shared.Apply(); err == nil || !strings.Contains(err.Error(), "unknown transport") {
			t.Fatalf("-transport=hier: apply = %v, want unknown transport", err)
		}
	})
}
