package mpi_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"ddr/internal/mpi"
)

// killPeerDeadline bounds how long a survivor may take to observe the
// death of a killed peer.
const killPeerDeadline = 10 * time.Second

// killPeerStepTimeout bounds every other blocking step of the
// multi-process choreography (worker startup, address exchange, joins).
// On a loaded 1-core box a race-built subprocess can starve long enough
// to wedge the whole dance; a bounded step turns that into a retryable
// failure instead of eating the package's test timeout.
const killPeerStepTimeout = 60 * time.Second

// TestTCPKillPeerMidExchange kills a real worker process mid-exchange and
// verifies the surviving ranks observe mpi.ErrPeerLost within the
// deadline instead of hanging. Rank 0 runs in this process; ranks 1
// (survivor) and 2 (victim) are subprocesses over loopback TCP.
//
// Subprocess scheduling under CPU starvation can wedge an attempt
// before the kill is ever issued; such attempts prove nothing about the
// loss path and are retried once. A real peer-loss regression fails
// both attempts.
func TestTCPKillPeerMidExchange(t *testing.T) {
	if os.Getenv("DDR_KILL_WORKER") != "" {
		return // worker mode is driven by TestTCPKillWorker below
	}
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	var lastErr error
	for attempt := 1; attempt <= 2; attempt++ {
		if lastErr = runKillPeerAttempt(t); lastErr == nil {
			return
		}
		t.Logf("attempt %d: %v", attempt, lastErr)
	}
	t.Fatal(lastErr)
}

// killWorker is one subprocess plus a goroutine pumping its stdout
// lines into a channel, so waiting for a protocol line can time out.
type killWorker struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string
}

// expect waits for the next stdout line starting with prefix and
// returns the remainder, failing after killPeerStepTimeout.
func (w *killWorker) expect(prefix string) (string, error) {
	deadline := time.After(killPeerStepTimeout)
	for {
		select {
		case line, ok := <-w.lines:
			if !ok {
				return "", fmt.Errorf("worker exited while waiting for %q", prefix)
			}
			if strings.HasPrefix(line, prefix) {
				return strings.TrimSpace(strings.TrimPrefix(line, prefix)), nil
			}
		case <-deadline:
			return "", fmt.Errorf("timed out waiting for %q", prefix)
		}
	}
}

func runKillPeerAttempt(t *testing.T) error {
	const n = 3
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}

	ep, err := mpi.NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	addrs := make([]string, n)
	addrs[0] = ep.Addr()

	workers := make([]*killWorker, 0, n-1)
	defer func() {
		for _, w := range workers {
			w.cmd.Process.Kill() //nolint:errcheck // cleanup on failure paths
			w.cmd.Wait()         //nolint:errcheck // reap, avoid zombies across retries
		}
	}()
	for rank := 1; rank < n; rank++ {
		cmd := exec.Command(exe, "-test.run", "TestTCPKillWorker$", "-test.v")
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("DDR_KILL_WORKER=%d", rank),
			fmt.Sprintf("DDR_KILL_SIZE=%d", n))
		stdin, err := cmd.StdinPipe()
		if err != nil {
			t.Fatal(err)
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		w := &killWorker{cmd: cmd, stdin: stdin, lines: make(chan string, 64)}
		go func() {
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				w.lines <- sc.Text()
			}
			close(w.lines)
		}()
		workers = append(workers, w)
	}

	for i, w := range workers {
		addr, err := w.expect("ADDR ")
		if err != nil {
			return fmt.Errorf("worker %d: %w", i+1, err)
		}
		addrs[i+1] = addr
	}
	for _, w := range workers {
		if _, err := fmt.Fprintln(w.stdin, strings.Join(addrs, " ")); err != nil {
			return fmt.Errorf("sending address list: %w", err)
		}
	}

	// Join and warmup block on every peer being up; run them under the
	// step watchdog so a starved worker can't wedge the attempt.
	joined := make(chan error, 1)
	var c *mpi.Comm
	go func() {
		var err error
		c, err = ep.Join(0, addrs)
		if err == nil {
			err = killExchangeWarmup(c)
		}
		joined <- err
	}()
	select {
	case err := <-joined:
		if err != nil {
			return fmt.Errorf("rank 0 join/warmup: %w", err)
		}
	case <-time.After(killPeerStepTimeout):
		return errors.New("timed out joining the 3-rank world")
	}

	// The victim reports it is parked mid-exchange; kill it for real.
	if _, err := workers[1].expect("VICTIM-READY"); err != nil {
		return err
	}
	if err := workers[1].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	workers[1].cmd.Wait() //nolint:errcheck // killed on purpose

	// Rank 0 is itself a survivor: its pending receive from the victim
	// must fail with the typed loss error, within the deadline. From
	// here on the attempt proves the contract — no more retrying, any
	// failure is the real thing.
	start := time.Now()
	if err := killSurvivorCheck(c); err != nil {
		t.Fatalf("rank 0 survivor check: %v", err)
	}
	if el := time.Since(start); el > killPeerDeadline {
		t.Fatalf("rank 0 observed the loss only after %v", el)
	}

	// The subprocess survivor must reach the same verdict.
	got, err := workers[0].expect("SURVIVOR ")
	if err != nil {
		t.Fatal(err)
	}
	if got != "ok" {
		t.Fatalf("worker survivor reported %q", got)
	}
	if err := workers[0].cmd.Wait(); err != nil {
		t.Fatalf("survivor worker failed: %v", err)
	}
	return nil
}

// TestTCPKillWorker is the worker-process entry point for the kill test;
// a no-op unless launched by TestTCPKillPeerMidExchange.
func TestTCPKillWorker(t *testing.T) {
	rankStr := os.Getenv("DDR_KILL_WORKER")
	if rankStr == "" {
		t.Skip("not in worker mode")
	}
	var rank, size int
	if _, err := fmt.Sscan(rankStr, &rank); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscan(os.Getenv("DDR_KILL_SIZE"), &size); err != nil {
		t.Fatal(err)
	}
	ep, err := mpi.NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	fmt.Printf("ADDR %s\n", ep.Addr())
	os.Stdout.Sync() //nolint:errcheck

	line, err := bufio.NewReader(os.Stdin).ReadString('\n')
	if err != nil {
		t.Fatalf("reading address list: %v", err)
	}
	c, err := ep.Join(rank, strings.Fields(line))
	if err != nil {
		t.Fatal(err)
	}
	if err := killExchangeWarmup(c); err != nil {
		t.Fatalf("rank %d warmup: %v", rank, err)
	}
	if rank == size-1 {
		// Victim: park in a receive that never completes and wait for the
		// parent's SIGKILL. Exiting normally would close the endpoint
		// gracefully and dodge the abrupt-death path under test.
		fmt.Println("VICTIM-READY")
		os.Stdout.Sync() //nolint:errcheck
		c.Recv(0, 99)    //nolint:errcheck // killed while blocked here
		t.Fatal("victim outlived its execution")
	}
	if err := killSurvivorCheck(c); err != nil {
		fmt.Printf("SURVIVOR %v\n", err)
		t.Fatalf("rank %d: %v", rank, err)
	}
	fmt.Println("SURVIVOR ok")
}

// killExchangeWarmup exchanges one message along every directed pair so
// every TCP connection in the world is established and proven healthy
// before the victim goes down.
func killExchangeWarmup(c *mpi.Comm) error {
	for peer := 0; peer < c.Size(); peer++ {
		if peer == c.Rank() {
			continue
		}
		if err := c.Send(peer, 1, []byte{byte(c.Rank())}); err != nil {
			return err
		}
	}
	for peer := 0; peer < c.Size(); peer++ {
		if peer == c.Rank() {
			continue
		}
		data, _, _, err := c.Recv(peer, 1)
		if err != nil {
			return err
		}
		if len(data) != 1 || int(data[0]) != peer {
			return fmt.Errorf("warmup from %d delivered %v", peer, data)
		}
		mpi.PutBuffer(data)
	}
	// The victim (the highest rank) returns only once every survivor holds
	// its warmup message. Send returns with the frame queued, not written:
	// killed with it still queued, the victim would leave a survivor blocked
	// above on a connection that has carried nothing, which a dying socket
	// cannot attribute to any rank.
	victim := c.Size() - 1
	if c.Rank() != victim {
		return c.Send(victim, 3, nil)
	}
	for peer := 0; peer < victim; peer++ {
		data, _, _, err := c.Recv(peer, 3)
		if err != nil {
			return err
		}
		mpi.PutBuffer(data)
	}
	return nil
}

// killSurvivorCheck blocks receiving from the victim (the highest rank)
// and requires the typed peer-loss error within the deadline.
func killSurvivorCheck(c *mpi.Comm) error {
	ctx, cancel := context.WithTimeout(context.Background(), killPeerDeadline)
	defer cancel()
	victim := c.Size() - 1
	_, _, _, err := c.Irecv(victim, 2).WaitCtx(ctx)
	if !errors.Is(err, mpi.ErrPeerLost) {
		return fmt.Errorf("recv from killed rank %d: got %v, want mpi.ErrPeerLost", victim, err)
	}
	return nil
}
