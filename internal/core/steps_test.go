package core

import (
	"fmt"
	"testing"

	"ddr/internal/datatype"
	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// Direct tests of the step IR (exec.go): whatever a backend compiles,
// the world's step lists together must move every overlap byte exactly
// once, pair every send with one receive of the same step and tag, keep
// tags unambiguous across the deepest in-flight window, and — when
// compiled for a budget — model no step above it. The executor itself is
// held by the differential and property sweeps; these invariants are what
// it relies on.

// cellKey names one byte-moving obligation: a cell of the global domain
// travelling from src to destination buffer buf of rank dst.
type cellKey struct {
	src, dst, buf int
	x, y, z       int
}

// addCells counts every cell of box under (src, dst, buf).
func addCells(m map[cellKey]int, src, dst, buf int, box grid.Box) {
	for z := 0; z < box.Dims[2]; z++ {
		for y := 0; y < box.Dims[1]; y++ {
			for x := 0; x < box.Dims[0]; x++ {
				m[cellKey{src, dst, buf, box.Offset[0] + x, box.Offset[1] + y, box.Offset[2] + z}]++
			}
		}
	}
}

// segBox recovers the global region a freshly compiled seg addresses.
func segBox(t *testing.T, sg seg) grid.Box {
	t.Helper()
	sub, ok := sg.t.(*datatype.Subarray)
	if !ok {
		t.Fatalf("seg type %T is not a Subarray", sg.t)
	}
	return sub.Sub
}

// maxWindow is the deepest pipeline the sweeps run plus the retiring slot.
const maxWindow = 4 + 1

// checkSchedules verifies invariants (a) and (b) over one world's step
// lists, and (c) when budget > 0. want counts each obligation once.
func checkSchedules(t *testing.T, scheds [][]step, want map[cellKey]int, budget int) {
	t.Helper()
	got := map[cellKey]int{}
	matched := map[*message]int{}
	for r, sched := range scheds {
		if len(sched) != len(scheds[0]) {
			t.Fatalf("rank %d compiled %d steps, rank 0 %d", r, len(sched), len(scheds[0]))
		}
		for i := range sched {
			st := &sched[i]
			load := 0
			for _, sf := range st.selfs {
				box := segBox(t, sf.src)
				if !box.Equal(segBox(t, sf.dst)) {
					t.Errorf("rank %d step %d: self move packs %v but scatters %v", r, i, box, segBox(t, sf.dst))
				}
				addCells(got, r, r, sf.dst.buf, box)
				load += mpi.BufferClassSize(sf.src.t.PackedSize())
			}
			for j := range st.sends {
				m := &st.sends[j]
				load += mpi.BufferClassSize(m.bytes)
				var peer *message
				for k := range scheds[m.peer][i].recvs {
					if rm := &scheds[m.peer][i].recvs[k]; rm.peer == r && rm.tag == m.tag {
						if peer != nil {
							t.Errorf("rank %d step %d: send to %d tag %d matches two receives", r, i, m.peer, m.tag)
						}
						peer = rm
					}
				}
				if peer == nil {
					t.Errorf("rank %d step %d: send to %d tag %d has no receive in the peer's step", r, i, m.peer, m.tag)
					continue
				}
				matched[peer]++
				if peer.bytes != m.bytes || len(peer.segs) != len(m.segs) {
					t.Errorf("rank %d step %d → %d: %d bytes in %d segs sent, %d in %d expected",
						r, i, m.peer, m.bytes, len(m.segs), peer.bytes, len(peer.segs))
					continue
				}
				for k := range m.segs {
					box := segBox(t, m.segs[k])
					if !box.Equal(segBox(t, peer.segs[k])) || !box.Equal(peer.segs[k].region) {
						t.Errorf("rank %d step %d → %d seg %d: packs %v, peer scatters %v (region %v)",
							r, i, m.peer, k, box, segBox(t, peer.segs[k]), peer.segs[k].region)
					}
					addCells(got, r, m.peer, peer.segs[k].buf, box)
				}
			}
			for j := range st.recvs {
				load += mpi.BufferClassSize(st.recvs[j].bytes)
			}
			if budget > 0 && load > budget {
				t.Errorf("rank %d step %d models %d staging bytes over the %d budget", r, i, load, budget)
			}
		}
		// (b) Within any window of steps that can be in flight together, a
		// (peer, tag) pair names one message per direction.
		for lo := range sched {
			sent, rcvd := map[[2]int]bool{}, map[[2]int]bool{}
			for i := lo; i < min(lo+maxWindow, len(sched)); i++ {
				for _, m := range sched[i].sends {
					if sent[[2]int{m.peer, m.tag}] {
						t.Errorf("rank %d: send (peer %d, tag %d) repeats within steps %d..%d", r, m.peer, m.tag, lo, i)
					}
					sent[[2]int{m.peer, m.tag}] = true
				}
				for _, m := range sched[i].recvs {
					if rcvd[[2]int{m.peer, m.tag}] {
						t.Errorf("rank %d: recv (peer %d, tag %d) repeats within steps %d..%d", r, m.peer, m.tag, lo, i)
					}
					rcvd[[2]int{m.peer, m.tag}] = true
				}
			}
		}
	}
	for r, sched := range scheds {
		for i := range sched {
			for j := range sched[i].recvs {
				if n := matched[&sched[i].recvs[j]]; n != 1 {
					t.Errorf("rank %d step %d: receive from %d tag %d matched by %d sends",
						r, i, sched[i].recvs[j].peer, sched[i].recvs[j].tag, n)
				}
			}
		}
	}
	for k := range want {
		if got[k] != 1 {
			t.Errorf("obligation %+v moved %d times, want exactly once", k, got[k])
			break
		}
	}
	if len(got) != len(want) {
		t.Errorf("step lists move %d distinct cells, the geometry requires %d", len(got), len(want))
	}
}

// TestStepScheduleConservation runs the invariants over every backend's
// compiler on the bounded sweep's seeded geometries.
func TestStepScheduleConservation(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		bc := genBoundedCase(seed)
		plans := func(t *testing.T) []*Plan {
			ps := make([]*Plan, bc.nProcs)
			for r := range ps {
				var err error
				if ps[r], err = NewPlanFromGeometry(r, bc.elemSize, bc.chunks, bc.needs); err != nil {
					t.Fatal(err)
				}
			}
			return ps
		}
		// The brute-force obligations: every (chunk × need) overlap cell.
		overlaps := map[cellKey]int{}
		for src, chunks := range bc.chunks {
			for _, chunk := range chunks {
				for dst, need := range bc.needs {
					if ov, ok := chunk.Intersect(need); ok {
						addCells(overlaps, src, dst, 0, ov)
					}
				}
			}
		}
		fp := bc.footprint(t, ModePointToPoint)
		tiers := []int{max(fp/2, 1<<minStagingShift), max(fp/8, 1<<minStagingShift), 1 << minStagingShift}

		type backend struct {
			name   string
			budget int
			want   map[cellKey]int
			build  func(t *testing.T) [][]step
		}
		backends := []backend{
			{"p2p", 0, overlaps, func(t *testing.T) [][]step {
				var out [][]step
				for _, p := range plans(t) {
					out = append(out, p.sched)
				}
				return out
			}},
			{"fused", 0, overlaps, func(t *testing.T) [][]step {
				var out [][]step
				for _, p := range plans(t) {
					out = append(out, p.fusedSteps())
				}
				return out
			}},
		}
		for _, budget := range tiers {
			backends = append(backends, backend{fmt.Sprintf("bounded%d", budget), budget, overlaps, func(t *testing.T) [][]step {
				var out [][]step
				for _, p := range plans(t) {
					if err := CompileBoundedForTest(p, budget); err != nil {
						t.Fatal(err)
					}
					out = append(out, p.bounded.sched)
				}
				return out
			}})
		}

		// Delta: every rank hands its need to its right neighbour. A cell of
		// the new need comes from the rank itself when it already held it,
		// else from the lowest-ranked old holder.
		newNeeds := make([]grid.Box, bc.nProcs)
		deltaWant := map[cellKey]int{}
		for r := range newNeeds {
			newNeeds[r] = bc.needs[(r+1)%bc.nProcs]
			held := map[cellKey]int{}
			if ov, ok := newNeeds[r].Intersect(bc.needs[r]); ok {
				addCells(held, 0, 0, 0, ov)
				addCells(deltaWant, r, r, 0, ov)
			}
			for s := range bc.needs {
				if ov, ok := newNeeds[r].Intersect(bc.needs[s]); ok && s != r {
					fresh := map[cellKey]int{}
					addCells(fresh, 0, 0, 0, ov)
					for c := range fresh {
						if held[c] == 0 {
							held[c] = 1
							deltaWant[cellKey{s, r, 0, c.x, c.y, c.z}] = 1
						}
					}
				}
			}
		}
		backends = append(backends, backend{"delta", 0, deltaWant, func(t *testing.T) [][]step {
			dps, err := CompileDelta(bc.elemSize, bc.needs, newNeeds)
			if err != nil {
				t.Fatal(err)
			}
			var out [][]step
			for _, p := range dps {
				out = append(out, p.sched)
			}
			return out
		}})

		// Multi: each rank needs its box as two halves, two destination
		// buffers per rank.
		multiNeeds := make([][]grid.Box, bc.nProcs)
		multiWant := map[cellKey]int{}
		for r, need := range bc.needs {
			multiNeeds[r] = []grid.Box{need}
			if need.Dims[0] > 1 {
				multiNeeds[r] = grid.Slabs(need, 0, 2)
			}
			for src, chunks := range bc.chunks {
				for _, chunk := range chunks {
					for ni, nb := range multiNeeds[r] {
						if ov, ok := chunk.Intersect(nb); ok {
							addCells(multiWant, src, r, ni, ov)
						}
					}
				}
			}
		}
		backends = append(backends, backend{"multi", 0, multiWant, func(t *testing.T) [][]step {
			out := make([][]step, bc.nProcs)
			err := mpi.Launch(bc.nProcs, func(c *mpi.Comm) error {
				d, err := NewMultiDescriptor(bc.nProcs, bc.layout, Uint8)
				if err != nil {
					return err
				}
				d.elemSize = bc.elemSize
				if err := d.SetupDataMapping(c, bc.chunks[c.Rank()], multiNeeds[c.Rank()]); err != nil {
					return err
				}
				out[c.Rank()] = d.plan.sched
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}})

		for _, b := range backends {
			t.Run(fmt.Sprintf("seed%d/%s", seed, b.name), func(t *testing.T) {
				checkSchedules(t, b.build(t), b.want, b.budget)
			})
		}
	}
}
