package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// nextCollTag returns the reserved (negative) tag for the next collective
// operation on this communicator. Collectives must be invoked by all
// ranks of a communicator in the same order — the standard MPI contract —
// which keeps the per-rank sequence numbers in lockstep.
func (c *Comm) nextCollTag() int {
	c.collSeq++
	return -2 - (c.collSeq & 0xFFFFF)
}

// Barrier blocks until every rank in the communicator has entered it.
func (c *Comm) Barrier() error {
	tag := c.nextCollTag()
	// Fan-in to rank 0, then fan-out, both along a binomial tree.
	if err := c.treeGatherSignal(tag); err != nil {
		return err
	}
	_, err := c.bcastInternal(0, nil, tag)
	return err
}

// treeGatherSignal performs an empty-message reduction to rank 0.
func (c *Comm) treeGatherSignal(tag int) error {
	size, rank := len(c.group), c.rank
	for mask := 1; mask < size; mask <<= 1 {
		if rank&mask != 0 {
			dst := rank - mask
			return c.send(nil, dst, tag, nil, nil, nil, nil)
		}
		src := rank + mask
		if src < size {
			if _, _, _, err := c.Recv(src, tag); err != nil {
				return err
			}
		}
	}
	return nil
}

// Bcast distributes root's data to every rank and returns the received
// copy (root receives its own data back unchanged).
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	return c.bcastInternal(root, data, c.nextCollTag())
}

// bcastInternal is a binomial-tree broadcast on an already-allocated tag.
func (c *Comm) bcastInternal(root int, data []byte, tag int) ([]byte, error) {
	size, rank := len(c.group), c.rank
	rel := (rank - root + size) % size
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			src := rank - mask
			if src < 0 {
				src += size
			}
			got, _, _, err := c.Recv(src, tag)
			if err != nil {
				return nil, err
			}
			data = got
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < size {
			dst := rank + mask
			if dst >= size {
				dst -= size
			}
			if err := c.send(nil, dst, tag, data, nil, nil, nil); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// Gather collects each rank's data at root. At root the returned slice has
// one entry per rank (in rank order); at other ranks it is nil.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	tag := c.nextCollTag()
	if c.rank != root {
		return nil, c.send(nil, root, tag, data, nil, nil, nil)
	}
	out := make([][]byte, len(c.group))
	cp := make([]byte, len(data))
	copy(cp, data)
	out[root] = cp
	for r := range c.group {
		if r == root {
			continue
		}
		got, _, _, err := c.Recv(r, tag)
		if err != nil {
			return nil, err
		}
		out[r] = got
	}
	return out, nil
}

// Allgather collects each rank's data on every rank (rank order).
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	parts, err := c.Gather(0, data)
	if err != nil {
		return nil, err
	}
	var packed []byte
	if c.rank == 0 {
		packed = encodeSlices(parts)
	}
	packed, err = c.Bcast(0, packed)
	if err != nil {
		return nil, err
	}
	return decodeSlices(packed, len(c.group))
}

// ReduceOp identifies an elementwise reduction operator.
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpMin
	OpMax
)

func (op ReduceOp) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	}
	return fmt.Sprintf("ReduceOp(%d)", int(op))
}

// AllreduceFloat64 reduces vals elementwise across all ranks and returns
// the result on every rank. All ranks must pass slices of equal length.
func (c *Comm) AllreduceFloat64(vals []float64, op ReduceOp) ([]float64, error) {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	parts, err := c.Gather(0, buf)
	if err != nil {
		return nil, err
	}
	var reduced []byte
	if c.rank == 0 {
		acc := make([]float64, len(vals))
		copy(acc, vals)
		for r, p := range parts {
			if r == 0 {
				continue
			}
			if len(p) != len(buf) {
				return nil, fmt.Errorf("mpi: allreduce length mismatch from rank %d", r)
			}
			for i := range acc {
				v := math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
				switch op {
				case OpSum:
					acc[i] += v
				case OpMin:
					acc[i] = math.Min(acc[i], v)
				case OpMax:
					acc[i] = math.Max(acc[i], v)
				default:
					return nil, fmt.Errorf("mpi: unsupported reduce op %v", op)
				}
			}
		}
		reduced = make([]byte, len(buf))
		for i, v := range acc {
			binary.LittleEndian.PutUint64(reduced[8*i:], math.Float64bits(v))
		}
	}
	reduced, err = c.Bcast(0, reduced)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(vals))
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(reduced[8*i:]))
	}
	return out, nil
}

// AllreduceInt64 reduces vals elementwise across all ranks and returns the
// result on every rank. All ranks must pass slices of equal length.
func (c *Comm) AllreduceInt64(vals []int64, op ReduceOp) ([]int64, error) {
	fs := make([]float64, len(vals))
	for i, v := range vals {
		fs[i] = float64(v)
	}
	// int64 values used by DDR (chunk counts, byte totals) are far below
	// 2^53, so the float64 path is exact for them; guard anyway.
	for _, v := range vals {
		if v > 1<<52 || v < -(1<<52) {
			return nil, fmt.Errorf("mpi: AllreduceInt64 value %d exceeds exact range", v)
		}
	}
	rf, err := c.AllreduceFloat64(fs, op)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(vals))
	for i, v := range rf {
		out[i] = int64(v)
	}
	return out, nil
}

// encodeSlices frames a list of byte slices into one buffer.
func encodeSlices(parts [][]byte) []byte {
	total := 4
	for _, p := range parts {
		total += 4 + len(p)
	}
	out := make([]byte, 0, total)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(parts)))
	out = append(out, hdr[:]...)
	for _, p := range parts {
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
		out = append(out, hdr[:]...)
		out = append(out, p...)
	}
	return out
}

// decodeSlices reverses encodeSlices, validating the expected count.
func decodeSlices(buf []byte, want int) ([][]byte, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("mpi: truncated slice framing")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n != want {
		return nil, fmt.Errorf("mpi: framing holds %d slices, want %d", n, want)
	}
	buf = buf[4:]
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		if len(buf) < 4 {
			return nil, fmt.Errorf("mpi: truncated slice header %d", i)
		}
		l := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if len(buf) < l {
			return nil, fmt.Errorf("mpi: truncated slice body %d", i)
		}
		out[i] = buf[:l:l]
		buf = buf[l:]
	}
	return out, nil
}
