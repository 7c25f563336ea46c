package mpi_test

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"

	"ddr/internal/mpi"
)

// TestTCPMultiProcess verifies the TCP transport across real OS process
// boundaries, not just goroutines: the test re-executes its own binary as
// worker processes, exchanges endpoint addresses over pipes, and runs a
// barrier + allreduce + ring shift across the processes.
func TestTCPMultiProcess(t *testing.T) {
	if os.Getenv("DDR_TCP_WORKER") != "" {
		return // worker mode is driven by TestTCPWorker below
	}
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	const n = 3
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}

	// Rank 0 lives in this process.
	ep, err := mpi.NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	addrs := make([]string, n)
	addrs[0] = ep.Addr()

	type worker struct {
		cmd   *exec.Cmd
		stdin io.WriteCloser
		out   *bufio.Reader
	}
	workers := make([]worker, 0, n-1)
	for rank := 1; rank < n; rank++ {
		cmd := exec.Command(exe, "-test.run", "TestTCPWorker$", "-test.v")
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("DDR_TCP_WORKER=%d", rank),
			fmt.Sprintf("DDR_TCP_SIZE=%d", n))
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
		workers = append(workers, worker{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)})
	}
	defer func() {
		for _, w := range workers {
			w.cmd.Process.Kill() //nolint:errcheck // cleanup on failure paths
		}
	}()

	// Collect each worker's address (it prints "ADDR <addr>").
	for i, w := range workers {
		for {
			line, err := w.out.ReadString('\n')
			if err != nil {
				t.Fatalf("worker %d: reading address: %v", i+1, err)
			}
			if strings.HasPrefix(line, "ADDR ") {
				addrs[i+1] = strings.TrimSpace(strings.TrimPrefix(line, "ADDR "))
				break
			}
		}
	}
	// Distribute the full address list.
	for _, w := range workers {
		if _, err := fmt.Fprintln(w.stdin, strings.Join(addrs, " ")); err != nil {
			t.Fatal(err)
		}
	}

	c, err := ep.Join(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := tcpWorkerBody(c); err != nil {
		t.Fatalf("rank 0: %v", err)
	}
	for i, w := range workers {
		if err := w.cmd.Wait(); err != nil {
			t.Fatalf("worker %d failed: %v", i+1, err)
		}
	}
}

// TestTCPWorker is the worker-process entry point; it is a no-op unless
// launched by TestTCPMultiProcess with the DDR_TCP_WORKER environment.
func TestTCPWorker(t *testing.T) {
	rankStr := os.Getenv("DDR_TCP_WORKER")
	if rankStr == "" {
		t.Skip("not in worker mode")
	}
	var rank, size int
	if _, err := fmt.Sscan(rankStr, &rank); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscan(os.Getenv("DDR_TCP_SIZE"), &size); err != nil {
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
	addrs := strings.Fields(line)
	if len(addrs) != size {
		t.Fatalf("got %d addresses, want %d", len(addrs), size)
	}
	c, err := ep.Join(rank, addrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := tcpWorkerBody(c); err != nil {
		t.Fatalf("rank %d: %v", rank, err)
	}
}

// tcpWorkerBody is the cross-process program every rank runs.
func tcpWorkerBody(c *mpi.Comm) error {
	if err := c.Barrier(); err != nil {
		return err
	}
	n := c.Size()
	sum, err := c.AllreduceInt64([]int64{int64(c.Rank())}, mpi.OpSum)
	if err != nil {
		return err
	}
	if want := int64(n * (n - 1) / 2); sum[0] != want {
		return fmt.Errorf("allreduce sum %d, want %d", sum[0], want)
	}
	dst := (c.Rank() + 1) % n
	src := (c.Rank() - 1 + n) % n
	req := c.Isend(dst, 11, []byte{byte(c.Rank())})
	got, _, _, err := c.Recv(src, 11)
	if err != nil {
		return err
	}
	if _, _, _, err := req.Wait(); err != nil {
		return err
	}
	if int(got[0]) != src {
		return fmt.Errorf("ring shift received %d, want %d", got[0], src)
	}
	return c.Barrier()
}
