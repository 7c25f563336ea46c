package core

import (
	"fmt"
	"testing"

	"ddr/internal/grid"
)

// Direct tests of the step IR (exec.go): whatever a backend compiles,
// the world's step lists together must move every overlap byte exactly
// once, pair every send with exactly one receive of the same pair and tag
// — wherever in its list each end scheduled it, since ranks may pack
// their steps differently — keep every (peer, tag) unique per direction,
// run to completion serially (no rank waits on a send another rank only
// posts after waiting on it), and — when compiled for a budget — model no
// step above it. The executor itself is held by the differential and
// property sweeps; these invariants are what it relies on.

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

// overlapCells is the brute-force obligations of a case: every cell of
// every (chunk × need) overlap.
func (bc *boundedCase) overlapCells() map[cellKey]int {
	cells := map[cellKey]int{}
	for src, chunks := range bc.chunks {
		for _, chunk := range chunks {
			for dst, need := range bc.needs {
				if ov, ok := chunk.Intersect(need); ok {
					addCells(cells, src, dst, 0, ov)
				}
			}
		}
	}
	return cells
}

// checkSchedules verifies the invariants over one world's step lists,
// the budget's only when budget > 0. want counts each obligation once.
func checkSchedules(t *testing.T, scheds [][]step, want map[cellKey]int, budget int) {
	t.Helper()
	type pairTag struct{ src, dst, tag int }
	recvs := map[pairTag]*message{}
	for r, sched := range scheds {
		for i := range sched {
			for j := range sched[i].recvs {
				m := &sched[i].recvs[j]
				k := pairTag{m.peer, r, m.tag}
				if recvs[k] != nil {
					t.Errorf("rank %d: recv (peer %d, tag %d) repeats", r, m.peer, m.tag)
				}
				recvs[k] = m
			}
		}
	}
	got := map[cellKey]int{}
	matched := map[*message]int{}
	for r, sched := range scheds {
		sent := map[pairTag]bool{}
		for i := range sched {
			st := &sched[i]
			for _, sf := range st.selfs {
				box := sf.src.t.Sub
				if !box.Equal(sf.dst.t.Sub) {
					t.Errorf("rank %d step %d: self move packs %v but scatters %v", r, i, box, sf.dst.t.Sub)
				}
				addCells(got, r, r, sf.dst.buf, box)
			}
			for j := range st.sends {
				m := &st.sends[j]
				k := pairTag{r, m.peer, m.tag}
				if sent[k] {
					t.Errorf("rank %d: send (peer %d, tag %d) repeats", r, m.peer, m.tag)
				}
				sent[k] = true
				peer := recvs[k]
				if peer == nil {
					t.Errorf("rank %d step %d: send to %d tag %d has no receive on the peer's list", r, i, m.peer, m.tag)
					continue
				}
				matched[peer]++
				if peer.bytes != m.bytes || len(peer.segs) != len(m.segs) {
					t.Errorf("rank %d step %d → %d: %d bytes in %d segs sent, %d in %d expected",
						r, i, m.peer, m.bytes, len(m.segs), peer.bytes, len(peer.segs))
					continue
				}
				for k := range m.segs {
					box := m.segs[k].t.Sub
					if !box.Equal(peer.segs[k].t.Sub) {
						t.Errorf("rank %d step %d → %d seg %d: packs %v, peer scatters %v",
							r, i, m.peer, k, box, peer.segs[k].t.Sub)
					}
					addCells(got, r, m.peer, peer.segs[k].buf, box)
				}
			}
			if load := charge(st); budget > 0 && load > budget {
				t.Errorf("rank %d step %d models %d staging bytes over the %d budget", r, i, load, budget)
			}
		}
	}
	for k, m := range recvs {
		if n := matched[m]; n != 1 {
			t.Errorf("rank %d: receive from %d tag %d matched by %d sends", k.dst, k.src, k.tag, n)
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

	// Serial execution — depth 1, sends never blocking — must finish: each
	// rank posts its step's sends, then completes the step once every
	// receive of it has been sent. A deeper pipeline only posts more
	// before it waits, so it cannot block where this does not.
	pos := make([]int, len(scheds))
	posted := map[pairTag]bool{}
	for progress := true; progress; {
		progress = false
		for r, sched := range scheds {
			for pos[r] < len(sched) {
				st := &sched[pos[r]]
				for _, m := range st.sends {
					posted[pairTag{r, m.peer, m.tag}] = true
				}
				ready := true
				for _, m := range st.recvs {
					ready = ready && posted[pairTag{m.peer, r, m.tag}]
				}
				if !ready {
					break
				}
				pos[r]++
				progress = true
			}
		}
	}
	for r := range scheds {
		if pos[r] < len(scheds[r]) {
			t.Errorf("rank %d blocks in step %d of %d: the step lists deadlock", r, pos[r], len(scheds[r]))
		}
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
		plans := bc.plans
		overlaps := bc.overlapCells()
		fp := bc.tierScale(t)
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
		}
		for _, budget := range tiers {
			backends = append(backends, backend{fmt.Sprintf("bounded%d", budget), budget, overlaps, func(t *testing.T) [][]step {
				var out [][]step
				for _, p := range plans(t) {
					b, err := compileBounded(p, budget)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, b.steps(p))
				}
				return out
			}})
		}

		// Resize: every rank hands its need to its right neighbour. A cell of
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
		backends = append(backends, backend{"resize", 0, deltaWant, func(t *testing.T) [][]step {
			plans, err := CompileDelta(bc.elemSize, bc.needs, newNeeds)
			if err != nil {
				t.Fatal(err)
			}
			var out [][]step
			for _, p := range plans {
				out = append(out, p.sched)
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
