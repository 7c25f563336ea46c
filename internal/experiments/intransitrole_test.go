package experiments

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"ddr/internal/mpi"
)

// killSimDeadline bounds how long the viz role may take to fail once the
// sim process is killed: the bound killpeer_test.go holds a surviving
// rank of internal/mpi to.
const killSimDeadline = 10 * time.Second

// roleStepTimeout bounds every other blocking step of the two-process
// choreography (the rendezvous, the first frame, the sim's exit), so a
// wedged step fails the test instead of eating the package's timeout.
const roleStepTimeout = 60 * time.Second

// twoProcessConfig is the workload both processes of a split run agree
// on: M=4 producers, N=2 consumers, a 48×36 grid, a frame every 10
// iterations.
func twoProcessConfig(iters int) InTransitConfig {
	return InTransitConfig{M: 4, N: 2, GridW: 48, GridH: 36, Iterations: iters, OutputEvery: 10}
}

// startSim re-executes the test binary as the sim application of a
// split run of iters iterations that rendezvouses at path.
func startSim(t *testing.T, path string, iters int) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestInTransitSimWorker$")
	cmd.Env = append(os.Environ(), "DDR_INTRANSIT_SIM="+path, fmt.Sprintf("DDR_INTRANSIT_ITERS=%d", iters))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck // cleanup on failure paths
		cmd.Wait()         //nolint:errcheck // reap
	})
	return cmd
}

// TestInTransitSimWorker is the sim application of the two-process
// tests; it is a no-op unless started by startSim.
func TestInTransitSimWorker(t *testing.T) {
	path := os.Getenv("DDR_INTRANSIT_SIM")
	if path == "" {
		t.Skip("not in sim-worker mode")
	}
	iters, err := strconv.Atoi(os.Getenv("DDR_INTRANSIT_ITERS"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunInTransitRole(twoProcessConfig(iters), "sim", "127.0.0.1:0", path); err != nil {
		t.Fatal(err)
	}
}

// vizResult is the outcome of a viz role run on its own goroutine.
type vizResult struct {
	res *InTransitResult
	err error
}

func runViz(cfg InTransitConfig, path string) <-chan vizResult {
	done := make(chan vizResult, 1)
	go func() {
		res, err := RunInTransitRole(cfg, "viz", "127.0.0.1:0", path)
		done <- vizResult{res, err}
	}()
	return done
}

// TestInTransitTwoProcessMatchesCoupled runs the pipeline as two
// applications, the sim in a child process and the viz in this one,
// joined into one world through a rendezvous file. The pipeline is
// deterministic, so the consumer-side accounting must equal
// RunInTransit's on the same configuration, JPEG bytes included.
func TestInTransitTwoProcessMatchesCoupled(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	cfg := twoProcessConfig(20)
	coupled, err := RunInTransit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rdv")
	sim := startSim(t, path, cfg.Iterations)
	var split vizResult
	select {
	case split = <-runViz(cfg, path):
	case <-time.After(roleStepTimeout):
		t.Fatal("viz role did not finish")
	}
	if split.err != nil {
		t.Fatal(split.err)
	}
	exited := make(chan error, 1)
	go func() { exited <- sim.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("sim process: %v", err)
		}
	case <-time.After(roleStepTimeout):
		t.Fatal("sim process did not exit")
	}
	got := split.res
	if got.Frames != coupled.Frames || got.RawBytes != coupled.RawBytes || got.ProcessedBytes != coupled.ProcessedBytes {
		t.Errorf("split run: %d frames, %d raw, %d JPEG bytes; one world: %d, %d, %d",
			got.Frames, got.RawBytes, got.ProcessedBytes,
			coupled.Frames, coupled.RawBytes, coupled.ProcessedBytes)
	}
}

// TestInTransitSimKilledIsPeerLost kills the sim process once the viz
// side has rendered frame 0, so every producer has dialed its consumer
// (a rank learns of a lost peer only over a connection that peer
// dialed). The viz role must fail with mpi.ErrPeerLost within
// killSimDeadline instead of waiting for frames that never come.
func TestInTransitSimKilledIsPeerLost(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	// Long enough that the sim is still running when it is killed.
	cfg := twoProcessConfig(1_000_000)
	cfg.OutDir = t.TempDir()
	path := filepath.Join(t.TempDir(), "rdv")
	sim := startSim(t, path, cfg.Iterations)
	done := runViz(cfg, path)

	frame0 := filepath.Join(cfg.OutDir, "frame_0000_vorticity.jpg")
	deadline := time.Now().Add(roleStepTimeout)
	for {
		if _, err := os.Stat(frame0); err == nil {
			break
		}
		select {
		case r := <-done:
			t.Fatalf("viz role ended before frame 0: %v", r.err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("frame 0 was not rendered")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := sim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	select {
	case r := <-done:
		if !errors.Is(r.err, mpi.ErrPeerLost) {
			t.Fatalf("viz role after the sim was killed: got %v, want mpi.ErrPeerLost", r.err)
		}
		t.Logf("viz role failed %v after the kill: %v", time.Since(start), r.err)
	case <-time.After(killSimDeadline):
		t.Fatalf("viz role still running %v after the sim was killed", killSimDeadline)
	}
}

func TestInTransitRoleValidation(t *testing.T) {
	cfg := InTransitConfig{M: 2, N: 1, GridW: 32, GridH: 16, Iterations: 10, OutputEvery: 5}
	path := filepath.Join(t.TempDir(), "rdv")
	if _, err := RunInTransitRole(cfg, "both", "", path); err == nil {
		t.Error("unknown role accepted")
	}
	bad := cfg
	bad.OutputEvery = 0
	if _, err := RunInTransitRole(bad, "viz", "", path); err == nil {
		t.Error("zero OutputEvery accepted")
	}
	if _, err := RunInTransitRole(cfg, "sim", "", ""); err == nil {
		t.Error("missing rendezvous path accepted")
	}
	shm := cfg
	shm.Transport = "shm"
	if _, err := RunInTransitRole(shm, "sim", "", path); err == nil {
		t.Error("shm transport accepted")
	}
	merged := cfg
	merged.Telemetry = &Telemetry{MergeOut: filepath.Join(t.TempDir(), "merged.json")}
	if _, err := RunInTransitRole(merged, "viz", "", path); err == nil {
		t.Error("trace merge accepted")
	}
}
