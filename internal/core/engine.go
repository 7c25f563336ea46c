package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ddr/internal/datatype"
)

// The pack/unpack engine: every staging copy of an exchange is expressed
// as an exchJob, batched per phase, and executed by a per-descriptor
// worker pool. Jobs address disjoint byte regions — packs read immutable
// owned buffers into distinct wire buffers, unpacks scatter distinct wire
// buffers into disjoint need regions (DDR's exclusive-ownership
// precondition) — so a batch executes correctly at any parallelism.

// exchJob is one pack or unpack between a local array and a wire buffer.
type exchJob struct {
	t      datatype.Type
	local  []byte
	wire   []byte
	unpack bool
	peer   int // trace label only
}

// do executes the copy, recording the per-peer span and latency when
// observation is attached. Trace recorders and histograms are
// goroutine-safe, so do may run on a pool worker.
func (j *exchJob) do(o *exchObs) {
	if !o.on() {
		if j.unpack {
			j.t.Unpack(j.wire, j.local)
		} else {
			j.t.Pack(j.local, j.wire)
		}
		return
	}
	start := time.Now()
	if j.unpack {
		j.t.Unpack(j.wire, j.local)
	} else {
		j.t.Pack(j.local, j.wire)
	}
	o.observeCopy(start, len(j.wire), j.peer, j.unpack)
}

// observeCopy records one finished pack or unpack of n bytes that began
// at start: the per-peer span when tracing, and the latency.
func (o *exchObs) observeCopy(start time.Time, n, peer int, unpack bool) {
	now := time.Now()
	if o.rec != nil {
		name := fmt.Sprintf("pack->%d", peer)
		if unpack {
			name = fmt.Sprintf("unpack<-%d", peer)
		}
		o.rec.AddSpan(o.rank, name, start, now, int64(n))
	}
	if unpack {
		o.unpackLat.Observe(now.Sub(start).Seconds())
	} else {
		o.packLat.Observe(now.Sub(start).Seconds())
	}
}

// engine batches jobs for one exchange phase and runs them across the
// descriptor's worker pool. The job slice is reused across calls, so the
// steady state adds nothing to the garbage collector.
type engine struct {
	par   int // worker count forced by tests; 0, the value outside them, lets workers decide
	ranks int // size of the running exchange's communicator
	jobs  []exchJob
}

// workers is the pool width for a batch of n jobs: GOMAXPROCS, unless the
// communicator's ranks — goroutines of this process — already cover the
// cores. Forking there buys no parallelism and costs a goroutine set and
// a WaitGroup per step, so the batch runs inline.
func (e *engine) workers(n int) int {
	par := e.par
	if par <= 0 {
		if par = runtime.GOMAXPROCS(0); e.ranks >= par {
			return 1
		}
	}
	if par > n {
		par = n
	}
	return par
}

// reset empties the batch, dropping its references: a pack job's wire may
// be a span of another rank's need buffer.
func (e *engine) reset() {
	clear(e.jobs)
	e.jobs = e.jobs[:0]
}

func (e *engine) add(j exchJob) { e.jobs = append(e.jobs, j) }

// run executes the batched jobs and resets the batch. Workers claim jobs
// from a shared atomic cursor so imbalanced region sizes still spread
// across the pool; a single worker (or single job) runs inline on the
// calling goroutine with no synchronization.
func (e *engine) run(o *exchObs) {
	e.runJobs(o, e.jobs)
	e.reset()
}

// runJobs executes an externally owned job batch on the same worker
// pool, leaving the engine's own batch untouched. The executor keeps
// per-step unpack batches alive across several iterations (step r's
// unpack batch outlives step r+1's pack batch), so they cannot share the
// engine's single reusable slice.
func (e *engine) runJobs(o *exchObs, jobs []exchJob) {
	n := len(jobs)
	if n == 0 {
		return
	}
	par := e.workers(n)
	if par == 1 {
		for i := range jobs {
			jobs[i].do(o)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				jobs[i].do(o)
			}
		}()
	}
	wg.Wait()
}

// parallelism resolves the configured worker count, defaulting to
// GOMAXPROCS.
func (d *Descriptor) parallelism() int {
	if d.ex.eng.par <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return d.ex.eng.par
}

// directCopy moves an already-contiguous region with one memmove,
// bypassing the row loop, while still reporting the copy as the pack or
// unpack it stands for (it is one — just a fast one): a payload placed
// into its contiguous destination span, or a contiguous owned region
// landed in a peer's posted span.
func directCopy(o *exchObs, dst, src []byte, peer int, unpack bool) {
	if !o.on() {
		copy(dst, src)
		return
	}
	start := time.Now()
	copy(dst, src)
	o.observeCopy(start, len(src), peer, unpack)
}
