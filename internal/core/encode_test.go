package core

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"ddr/internal/grid"
)

func TestGeometryCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	domain := grid.Box3(0, 0, 0, 40, 30, 20)
	needs := make([]grid.Box, 7)
	chunks := make([][]grid.Box, len(needs))
	for r := range needs {
		needs[r] = grid.RandomBoxIn(rng, domain)
		for i := 0; i < r%4; i++ { // rank 0 and 4 own nothing
			chunks[r] = append(chunks[r], grid.RandomBoxIn(rng, domain))
		}
	}
	needs[3] = grid.Box3(0, 0, 0, 0, 0, 0)
	needs[5] = grid.Box{} // a rank outside an offline geometry's group
	gotNeeds, gotChunks, err := decodeGeometries(encodeWorld(needs, chunks))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotNeeds, needs) {
		t.Errorf("needs: got %v want %v", gotNeeds, needs)
	}
	for r := range chunks {
		if len(gotChunks[r]) != len(chunks[r]) || (len(chunks[r]) > 0 && !reflect.DeepEqual(gotChunks[r], chunks[r])) {
			t.Errorf("rank %d chunks: got %v want %v", r, gotChunks[r], chunks[r])
		}
		// The per-rank lists slice one table; appending to one must not
		// run into the next rank's boxes.
		if cap(gotChunks[r]) != len(gotChunks[r]) {
			t.Errorf("rank %d: chunk list has spare capacity %d into its neighbour", r, cap(gotChunks[r])-len(gotChunks[r]))
		}
	}
}

func TestGeometryCodecRejects(t *testing.T) {
	good := encodeGeometry(grid.Box2(0, 0, 8, 8), []grid.Box{grid.Box2(0, 0, 4, 8), grid.Box2(4, 0, 4, 8)})
	negative := append([]byte{geomVersion, 1}, binary.AppendUvarint(binary.AppendUvarint(nil, zigzag(0)), zigzag(-3))...)
	for name, bad := range map[string][]byte{
		"empty":           {},
		"version":         append([]byte{geomVersion + 1}, good[1:]...),
		"truncated":       good[:len(good)-1],
		"trailing":        append(append([]byte{}, good...), 0),
		"dimensionality":  {geomVersion, 9},
		"negative extent": append(negative, 0),
		"chunk count":     {geomVersion, 1, 0, 2, 100},
	} {
		if _, _, err := decodeGeometries([][]byte{good, bad}); err == nil {
			t.Errorf("%s: malformed stream accepted", name)
		}
	}
}

// TestGeometryDecodeAllocs guards the flat box table: decoding a P × C
// geometry allocates the same few slices whatever C is — O(P) at worst,
// never a slice (or two) per box.
func TestGeometryDecodeAllocs(t *testing.T) {
	const procs = 16
	allocs := func(chunksPer int) float64 {
		needs := make([]grid.Box, procs)
		chunks := make([][]grid.Box, procs)
		for r := range needs {
			needs[r] = grid.Box2(0, 4*r, 64, 4)
			for i := 0; i < chunksPer; i++ {
				chunks[r] = append(chunks[r], grid.Box2(i, 4*r, 1, 4))
			}
		}
		packed := encodeWorld(needs, chunks)
		return testing.AllocsPerRun(20, func() {
			if _, _, err := decodeGeometries(packed); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(2), allocs(64)
	if many > procs || many != few {
		t.Errorf("decoding %d ranks allocates %.0f times at 2 chunks/rank and %.0f at 64; want equal and at most %d",
			procs, few, many, procs)
	}
}

// TestMissCompileAllocs guards what a live miss allocates after the
// gather: decoding into the descriptor's reused table, then this rank's
// compile. That is the plan's own slabs and nothing per box or per rank,
// so a world four times the size allocates as often. The geometry is the
// mapping benchmark's halo regrid, where every rank sends, receives and
// keeps some of its data, so no slab is empty at either size.
func TestMissCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates per sync event")
	}
	allocs := func(procs int) float64 {
		chunks, needs := benchMappingGeometry(procs, 16)
		packed := encodeWorld(needs, chunks)
		var s mapScratch
		rank := procs / 2
		return testing.AllocsPerRun(20, func() {
			if _, err := s.compile(rank, 4, packed, false); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The Plan, its own chunks, and the step, message, seg and self-move
	// slabs.
	const slabs = 6
	small, large := allocs(17), allocs(68)
	if small != large || large > slabs {
		t.Errorf("a miss's decode and compile allocate %.0f times at 17×16 chunks and %.0f at 68×16; want equal and at most %d", small, large, slabs)
	}
}
