// Package stencil provides ghost-zone ("halo") exchange for iterative
// codes, built entirely on DDR's overlapping-receive semantics: every
// rank owns one tile of the domain and needs its tile grown by the halo
// width, which overlaps the neighbors' tiles. One DDR mapping set up per
// decomposition serves every iteration.
//
// The paper contrasts DDR with DIY2's neighbor-exchange abstraction
// (§II-B); this package shows the two styles converge — DDR's general
// redistribution subsumes structured halo exchange, including corner
// neighbors and halos wider than one cell, with no neighbor bookkeeping
// in the application.
package stencil

import (
	"fmt"

	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// Exchanger performs halo exchanges for one rank's tile of a decomposed
// domain.
type Exchanger struct {
	desc  *core.Descriptor
	comm  *mpi.Comm
	tile  grid.Box
	halo  grid.Box // tile grown by the halo width, clamped to the domain
	width int
	elem  int
}

// New builds the exchanger. tiles lists every rank's tile (they must be
// mutually exclusive and complete over domain — verified collectively);
// this rank works on tiles[c.Rank()]. width is the halo width in cells
// and elemSize the bytes per element. Collective over c.
func New(c *mpi.Comm, domain grid.Box, tiles []grid.Box, width, elemSize int, opts ...core.Option) (*Exchanger, error) {
	if len(tiles) != c.Size() {
		return nil, fmt.Errorf("stencil: %d tiles for %d ranks", len(tiles), c.Size())
	}
	if width < 1 {
		return nil, fmt.Errorf("stencil: halo width %d must be at least 1", width)
	}
	layout := core.Layout(domain.NDims)
	tile := tiles[c.Rank()]
	halo := tile.Grow(width, domain)
	opts = append([]core.Option{core.WithValidation()}, opts...)
	desc, err := core.NewDescriptor(c.Size(), layout, core.Uint8, append([]core.Option{core.WithElemSize(elemSize)}, opts...)...)
	if err != nil {
		return nil, err
	}
	if err := desc.SetupDataMapping(c, []grid.Box{tile}, halo); err != nil {
		return nil, err
	}
	return &Exchanger{desc: desc, comm: c, tile: tile, halo: halo, width: width, elem: elemSize}, nil
}

// Tile returns this rank's owned region.
func (e *Exchanger) Tile() grid.Box { return e.tile }

// Halo returns the tile grown by the halo width (the extent of the
// buffers Exchange operates on).
func (e *Exchanger) Halo() grid.Box { return e.halo }

// HaloBytes returns the byte size of a halo'd buffer.
func (e *Exchanger) HaloBytes() int { return e.halo.Volume() * e.elem }

// Exchange fills haloBuf (sized HaloBytes, covering Halo()) from tileBuf
// (one element per cell of Tile()): interior cells are copied from the
// local tile and ghost cells arrive from the owning neighbors. Cells of
// the halo box outside the global domain never exist (the halo box is
// clamped), so boundary tiles simply have smaller halos.
func (e *Exchanger) Exchange(tileBuf, haloBuf []byte) error {
	return e.desc.ReorganizeData(e.comm, [][]byte{tileBuf}, haloBuf)
}
