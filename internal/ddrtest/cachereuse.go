package ddrtest

import (
	"fmt"

	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// CacheReuseResult is the outcome of one rank's three-pass cache-reuse
// schedule.
type CacheReuseResult struct {
	Hits, Misses int64
	// CheckErrs holds the invariant-check outcome of each pass (nil =
	// clean). Pass 0 is the cold setup, pass 1 the warm replay of the
	// identical geometry, pass 2 the perturbed geometry.
	CheckErrs [3]error
	// PerturbApplied reports whether the stale-cache corruption was
	// planted on this rank between passes 0 and 1.
	PerturbApplied bool
}

// RunCacheReuse drives the case's geometry through one long-lived
// descriptor per rank in three SetupDataMapping/ReorganizeData passes:
// the original geometry cold, the identical geometry again (which must be
// a plan-cache hit), and a perturbed geometry with every need box shifted
// (which must miss and recompile). The fill invariant is checked after
// every exchange.
//
// With plantStale, rank 0 corrupts its cached plan via PerturbPlanForTest
// between the first and second pass — simulating a stale or damaged cache
// entry — and the warm pass's invariant check is expected to catch it;
// callers assert on CheckErrs[1] and PerturbApplied.
func (tc *Case) RunCacheReuse(plantStale bool) ([]CacheReuseResult, error) {
	perturbed := tc.perturbedNeeds()
	results := make([]CacheReuseResult, tc.NProcs)
	err := mpi.Launch(tc.NProcs, func(c *mpi.Comm) error {
		rank := c.Rank()
		res := &results[rank]
		d, err := core.NewDescriptor(tc.NProcs, tc.Layout, core.Uint8, core.WithElemSize(tc.ElemSize))
		if err != nil {
			return err
		}
		pass := func(i int, need grid.Box) error {
			if err := d.SetupDataMapping(c, tc.Chunks[rank], need); err != nil {
				return fmt.Errorf("pass %d: %w", i, err)
			}
			own := make([][]byte, len(tc.Chunks[rank]))
			for j, b := range tc.Chunks[rank] {
				own[j] = tc.FillBox(b)
			}
			needBuf := make([]byte, need.Volume()*tc.ElemSize)
			for j := range needBuf {
				needBuf[j] = Sentinel
			}
			if err := d.ReorganizeData(c, own, needBuf); err != nil {
				return fmt.Errorf("pass %d: %w", i, err)
			}
			if err := stagingReleased(d); err != nil {
				return fmt.Errorf("pass %d: %w", i, err)
			}
			res.CheckErrs[i] = tc.CheckNeed(need, needBuf, nil)
			return nil
		}

		if err := pass(0, tc.Needs[rank]); err != nil {
			return err
		}
		if plantStale && rank == 0 {
			// The cached entry and d.Plan() are the same object, so this
			// poisons what the warm pass will replay.
			res.PerturbApplied = d.Plan().PerturbPlanForTest()
		}
		if err := pass(1, tc.Needs[rank]); err != nil {
			return err
		}
		if err := pass(2, perturbed[rank]); err != nil {
			return err
		}
		res.Hits, res.Misses = d.PlanCacheStats()
		return nil
	})
	return results, err
}

// perturbedNeeds derives a second need layout from the case: every rank's
// need box shifted by one cell along the first axis (shrinking at the
// domain edge keeps the box non-empty). The global geometry differs from
// the original on every rank, so its fingerprint cannot collide with a
// correct cache implementation's notion of "same layout".
func (tc *Case) perturbedNeeds() []grid.Box {
	out := make([]grid.Box, len(tc.Needs))
	for r, need := range tc.Needs {
		shifted := need
		if shifted.Dims[0] > 1 {
			shifted.Dims[0]--
		}
		shifted.Offset[0]++
		out[r] = shifted
	}
	return out
}
