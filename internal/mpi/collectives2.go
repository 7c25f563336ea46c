package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Scatterv distributes parts[i] from root to rank i and returns the part
// received by the calling rank (the inverse of Gather). Only root's parts
// argument is consulted; other ranks may pass nil.
func (c *Comm) Scatterv(root int, parts [][]byte) ([]byte, error) {
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	tag := c.nextCollTag()
	if c.rank == root {
		if len(parts) != len(c.group) {
			return nil, fmt.Errorf("mpi: scatterv has %d parts for %d ranks", len(parts), len(c.group))
		}
		for r := range c.group {
			if r == root {
				continue
			}
			if err := c.send(nil, r, tag, parts[r], nil, nil); err != nil {
				return nil, err
			}
		}
		cp := make([]byte, len(parts[root]))
		copy(cp, parts[root])
		return cp, nil
	}
	data, _, _, err := c.Recv(root, tag)
	return data, err
}

// ReduceFloat64 reduces vals elementwise onto root. Root receives the
// reduction; other ranks receive nil. All ranks must pass equal lengths.
func (c *Comm) ReduceFloat64(root int, vals []float64, op ReduceOp) ([]float64, error) {
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	parts, err := c.Gather(root, buf)
	if err != nil {
		return nil, err
	}
	if c.rank != root {
		return nil, nil
	}
	acc := make([]float64, len(vals))
	copy(acc, vals)
	for r, p := range parts {
		if r == root {
			continue
		}
		if len(p) != len(buf) {
			return nil, fmt.Errorf("mpi: reduce length mismatch from rank %d", r)
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
	return acc, nil
}

// Sendrecv performs a combined send to dst and receive from src on the
// same tag, the deadlock-free shift primitive (MPI_Sendrecv). src and dst
// may be the same rank or differ (e.g. a ring shift).
func (c *Comm) Sendrecv(dst, src, tag int, data []byte) ([]byte, error) {
	if err := c.checkRank(dst); err != nil {
		return nil, err
	}
	req := c.Isend(dst, tag, data)
	got, _, _, err := c.Recv(src, tag)
	if err != nil {
		return nil, err
	}
	if _, _, _, serr := req.Wait(); serr != nil {
		return nil, serr
	}
	return got, nil
}

// Dup returns a communicator with the same group but an isolated message
// context (MPI_Comm_dup), so libraries layered over the same ranks cannot
// intercept each other's traffic. It is a collective call.
func (c *Comm) Dup() (*Comm, error) {
	return c.Split(0, c.rank)
}
