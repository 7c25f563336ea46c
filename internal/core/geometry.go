package core

import (
	"encoding/json"
	"fmt"
	"io"

	"ddr/internal/grid"
)

// Geometry is the JSON-serializable description of a global
// redistribution problem: which boxes every rank owns and needs, plus the
// element size. Saved geometries let schedule analysis (cmd/ddrplan) and
// capacity planning run far from the application that defined the layout.
type Geometry struct {
	ElemSize int        `json:"elem_size"`
	Chunks   [][]boxDTO `json:"chunks"` // [rank][chunk]
	Needs    []boxDTO   `json:"needs"`  // [rank]
}

// boxDTO is the wire form of a grid.Box.
type boxDTO struct {
	Offset []int `json:"offset"`
	Dims   []int `json:"dims"`
}

func toDTO(b grid.Box) boxDTO {
	return boxDTO{Offset: b.OffsetSlice(), Dims: b.DimsSlice()}
}

func fromDTO(d boxDTO) (grid.Box, error) {
	return grid.NewBox(d.Offset, d.Dims)
}

// Geometry returns the plan's global geometry in serializable form.
func (p *Plan) Geometry() Geometry {
	g := Geometry{
		ElemSize: p.elemSize,
		Chunks:   make([][]boxDTO, p.nProcs),
		Needs:    make([]boxDTO, p.nProcs),
	}
	allChunks, allNeeds := p.boxes()
	for r, chunks := range allChunks {
		g.Chunks[r] = make([]boxDTO, len(chunks))
		for i, b := range chunks {
			g.Chunks[r][i] = toDTO(b)
		}
		g.Needs[r] = toDTO(allNeeds[r])
	}
	return g
}

// Save writes the geometry as indented JSON.
func (g Geometry) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// LoadGeometry parses a geometry saved with Save, validating structure.
func LoadGeometry(r io.Reader) (Geometry, error) {
	var g Geometry
	if err := json.NewDecoder(r).Decode(&g); err != nil {
		return Geometry{}, fmt.Errorf("core: parsing geometry: %w", err)
	}
	if g.ElemSize <= 0 {
		return Geometry{}, fmt.Errorf("core: geometry element size %d invalid", g.ElemSize)
	}
	if len(g.Chunks) != len(g.Needs) {
		return Geometry{}, fmt.Errorf("core: geometry has %d chunk lists for %d needs",
			len(g.Chunks), len(g.Needs))
	}
	if len(g.Needs) == 0 {
		return Geometry{}, fmt.Errorf("core: geometry has no ranks")
	}
	return g, nil
}

// Boxes decodes the geometry into the per-rank chunk lists and need boxes
// NewPlanFromGeometry and CompileSchedule take.
func (g Geometry) Boxes() (allChunks [][]grid.Box, allNeeds []grid.Box, err error) {
	allChunks = make([][]grid.Box, len(g.Chunks))
	allNeeds = make([]grid.Box, len(g.Needs))
	for r := range g.Chunks {
		allChunks[r] = make([]grid.Box, len(g.Chunks[r]))
		for i, d := range g.Chunks[r] {
			if allChunks[r][i], err = fromDTO(d); err != nil {
				return nil, nil, fmt.Errorf("core: rank %d chunk %d: %w", r, i, err)
			}
		}
		if allNeeds[r], err = fromDTO(g.Needs[r]); err != nil {
			return nil, nil, fmt.Errorf("core: rank %d need: %w", r, err)
		}
	}
	return allChunks, allNeeds, nil
}
