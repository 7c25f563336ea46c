package mpi

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Split partitions the communicator into disjoint sub-communicators, one
// per distinct color, the analogue of MPI_Comm_split. Every rank must
// call Split; ranks passing the same color end up in the same
// sub-communicator, ordered by (key, parent rank). A negative color
// returns nil (the rank joins no group), matching MPI_UNDEFINED.
//
// The returned communicator shares the parent's transport but uses its own
// message context, so traffic on it can never be confused with traffic on
// the parent or on sibling sub-communicators.
func (c *Comm) Split(color, key int) (*Comm, error) {
	// Exchange (color, key) among all ranks so each can derive its group.
	var mine [16]byte
	binary.LittleEndian.PutUint64(mine[0:], uint64(int64(color)))
	binary.LittleEndian.PutUint64(mine[8:], uint64(int64(key)))
	all, err := c.Allgather(mine[:])
	if err != nil {
		return nil, err
	}
	c.splitSeq++

	if color < 0 {
		return nil, nil
	}
	type member struct{ color, key, parentRank int }
	var members []member
	colorIndex := map[int]int{} // color -> dense index, in first-appearance order
	for r, buf := range all {
		if len(buf) != 16 {
			return nil, fmt.Errorf("mpi: malformed split exchange from rank %d", r)
		}
		col := int(int64(binary.LittleEndian.Uint64(buf[0:])))
		k := int(int64(binary.LittleEndian.Uint64(buf[8:])))
		if col < 0 {
			continue
		}
		if _, ok := colorIndex[col]; !ok {
			colorIndex[col] = len(colorIndex)
		}
		if col == color {
			members = append(members, member{col, k, r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].parentRank < members[j].parentRank
	})
	group := make([]int, len(members))
	newRank := -1
	for i, m := range members {
		group[i] = c.group[m.parentRank]
		if m.parentRank == c.rank {
			newRank = i
		}
	}
	// Derive a context ID every member computes identically: mix the parent
	// context, the per-rank split sequence (in lockstep because Split is
	// collective), and the color's dense index.
	ctx := c.ctx*1000003 + uint32(c.splitSeq)*613 + uint32(colorIndex[color]) + 1
	return &Comm{
		rank:     newRank,
		group:    group,
		ctx:      ctx,
		world:    c.world,
		tr:       c.tr,
		box:      c.box,
		counters: c.counters, // and with them the rank's telemetry
	}, nil
}
