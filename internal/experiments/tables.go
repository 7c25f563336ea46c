package experiments

import (
	"bytes"
	"fmt"

	"ddr/internal/colormap"
	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/lbm"
	"ddr/internal/perfmodel"
)

// MiB is the unit the paper's Table III reports ("MB" = 2^20 bytes there;
// the consecutive-technique values only reproduce exactly in MiB).
const MiB = 1 << 20

// PaperScales are the process counts of the paper's TIFF study
// (3^3, 4^3, 5^3, 6^3).
var PaperScales = []int{27, 64, 125, 216}

// PaperDomain returns the artificial benchmark stack of §IV-A: 4096
// images of 4096×2048 32-bit grayscale pixels (128 GiB total).
func PaperDomain() grid.Box { return grid.Box3(0, 0, 0, 4096, 2048, 4096) }

// PaperTIFFWorkload returns the same stack as a perfmodel workload.
func PaperTIFFWorkload() perfmodel.TIFFWorkload {
	d := PaperDomain()
	return perfmodel.TIFFWorkload{
		NumImages:  d.Dims[2],
		ImageBytes: int64(d.Dims[0]) * int64(d.Dims[1]) * 4,
	}
}

// ScheduleFor computes the exact DDR communication schedule (rounds and
// per-rank-per-round wire bytes) for loading the given stack domain on p
// ranks with the given technique. This is pure geometry — the quantities
// of Table III — and involves no model.
func ScheduleFor(domain grid.Box, p int, tech Technique, elemSize int) (core.ScheduleStats, error) {
	allChunks, allNeeds := StackGeometry(domain, p, tech)
	plan, err := core.NewPlanFromGeometry(0, elemSize, allChunks, allNeeds)
	if err != nil {
		return core.ScheduleStats{}, err
	}
	return plan.Stats(), nil
}

// Table2Row holds one scale of Table II: modelled load seconds per
// technique alongside the paper's measurements.
type Table2Row struct {
	Procs                          int
	NoDDR, RoundRobin, Consec      float64 // modelled seconds
	PaperNoDDR, PaperRR, PaperCons float64 // measured on Cooley (paper)
}

// paperTable2 is Table II of the paper (mean seconds).
var paperTable2 = map[int][3]float64{
	27:  {283.0, 39.3, 49.2},
	64:  {204.6, 18.9, 18.9},
	125: {188.2, 11.1, 10.4},
	216: {165.3, 9.7, 6.6},
}

// Table2 reproduces Table II: for each paper scale it computes the exact
// communication schedule and projects load times through the machine
// model.
func Table2(m perfmodel.Machine) ([]Table2Row, error) {
	w := PaperTIFFWorkload()
	domain := PaperDomain()
	rows := make([]Table2Row, 0, len(PaperScales))
	for _, p := range PaperScales {
		rr, err := ScheduleFor(domain, p, RoundRobin, 4)
		if err != nil {
			return nil, err
		}
		cons, err := ScheduleFor(domain, p, Consecutive, 4)
		if err != nil {
			return nil, err
		}
		paper := paperTable2[p]
		rows = append(rows, Table2Row{
			Procs:      p,
			NoDDR:      m.LoadNoDDR(w, p, BrickDepthSplits(p)),
			RoundRobin: m.LoadDDR(w, p, rr.Rounds, rr.PerRankRoundAvg),
			Consec:     m.LoadDDR(w, p, cons.Rounds, cons.PerRankRoundAvg),
			PaperNoDDR: paper[0],
			PaperRR:    paper[1],
			PaperCons:  paper[2],
		})
	}
	return rows, nil
}

// Table3Row holds one scale of Table III: alltoallw rounds and MiB per
// rank per round for each technique, with the paper's values.
type Table3Row struct {
	Procs                int
	ConsRounds, RRRounds int
	ConsMiB, RRMiB       float64
	PaperConsRounds      int
	PaperConsMiB         float64
	PaperRRRounds        int
	PaperRRMiB           float64
}

// paperTable3 is Table III of the paper.
var paperTable3 = map[int][4]float64{
	27:  {1, 4315.12, 152, 30.81},
	64:  {1, 1920.00, 64, 31.50},
	125: {1, 1006.63, 33, 31.74},
	216: {1, 589.95, 19, 31.85},
}

// Table3 reproduces Table III exactly from the compiled plans.
func Table3() ([]Table3Row, error) {
	domain := PaperDomain()
	rows := make([]Table3Row, 0, len(PaperScales))
	for _, p := range PaperScales {
		rr, err := ScheduleFor(domain, p, RoundRobin, 4)
		if err != nil {
			return nil, err
		}
		cons, err := ScheduleFor(domain, p, Consecutive, 4)
		if err != nil {
			return nil, err
		}
		paper := paperTable3[p]
		rows = append(rows, Table3Row{
			Procs:           p,
			ConsRounds:      cons.Rounds,
			ConsMiB:         cons.PerRankRoundAvg / MiB,
			RRRounds:        rr.Rounds,
			RRMiB:           rr.PerRankRoundAvg / MiB,
			PaperConsRounds: int(paper[0]),
			PaperConsMiB:    paper[1],
			PaperRRRounds:   int(paper[2]),
			PaperRRMiB:      paper[3],
		})
	}
	return rows, nil
}

// Figure3Series returns the strong-scaling series of Figure 3 (seconds vs
// process count for the three techniques), which plots the Table II data.
type Figure3Series struct {
	Procs                     []int
	NoDDR, RoundRobin, Consec []float64
}

// Figure3 computes the Figure 3 series from the Table II model.
func Figure3(m perfmodel.Machine) (*Figure3Series, error) {
	rows, err := Table2(m)
	if err != nil {
		return nil, err
	}
	s := &Figure3Series{}
	for _, r := range rows {
		s.Procs = append(s.Procs, r.Procs)
		s.NoDDR = append(s.NoDDR, r.NoDDR)
		s.RoundRobin = append(s.RoundRobin, r.RoundRobin)
		s.Consec = append(s.Consec, r.Consec)
	}
	return s, nil
}

// PaperTable4Grids are the LBM grid sizes of Table IV.
var PaperTable4Grids = [][2]int{
	{3238, 1295},
	{6476, 2590},
	{12952, 5180},
	{25904, 10360},
}

// paperTable4 maps grid width to (raw GB, processed MB, reduction %).
var paperTable4 = map[int][3]float64{
	3238:  {3.2, 19.9, 99.38},
	6476:  {12.8, 61.0, 99.52},
	12952: {51.2, 217.8, 99.57},
	25904: {204.7, 830.9, 99.59},
}

// Table4Row holds one grid size of Table IV: raw float32 output versus
// rendered-JPEG output over the simulation's 200 saved steps.
type Table4Row struct {
	W, H           int
	Steps          int
	RawBytes       int64
	ProcessedBytes int64
	ReductionPct   float64

	PaperRawGB        float64
	PaperProcessedMB  float64
	PaperReductionPct float64
}

// MeasureJPEGBytesPerPixel runs a real serial LBM at the given grid,
// renders the vorticity field through the blue-white-red map every
// `every` iterations, JPEG-encodes each frame in memory, and returns the
// measured average JPEG bytes per pixel. This is the empirical compression
// density used to project Table IV to the paper's grids.
func MeasureJPEGBytesPerPixel(w, h, warmup, frames, every, quality int) (float64, error) {
	if frames <= 0 {
		return 0, fmt.Errorf("experiments: no frames measured")
	}
	p := lbm.Params{
		Width:         w,
		Height:        h,
		Viscosity:     0.02,
		InletVelocity: 0.1,
		Barrier:       lbm.CylinderBarrier(w/4, h/2, h/9),
	}
	s, err := lbm.NewSlab(p, 0, h)
	if err != nil {
		return 0, err
	}
	for i := 0; i < warmup; i++ {
		s.Step()
	}
	var totalBytes int64
	var buf bytes.Buffer
	for f := 0; f < frames; f++ {
		for i := 0; i < every; i++ {
			s.Step()
		}
		vort := s.VorticityInterior(nil, nil, nil, nil)
		lo, hi := colormap.SymmetricRange(vort)
		img, err := colormap.FieldToImage(vort, w, h, lo, hi, colormap.BlueWhiteRed)
		if err != nil {
			return 0, err
		}
		buf.Reset()
		if err := colormap.EncodeJPEG(&buf, img, quality); err != nil {
			return 0, err
		}
		totalBytes += int64(buf.Len())
	}
	return float64(totalBytes) / (float64(frames) * float64(w) * float64(h)), nil
}

// Table4 projects Table IV: raw sizes are exact (w*h*4 bytes per saved
// step), processed sizes extrapolate the measured JPEG bytes-per-pixel to
// the paper's grids. steps is the number of saved time steps (200 in the
// paper).
func Table4(bytesPerPixel float64, steps int) []Table4Row {
	rows := make([]Table4Row, 0, len(PaperTable4Grids))
	for _, g := range PaperTable4Grids {
		w, h := g[0], g[1]
		pixels := int64(w) * int64(h)
		raw := pixels * 4 * int64(steps)
		processed := int64(bytesPerPixel * float64(pixels) * float64(steps))
		paper := paperTable4[w]
		rows = append(rows, Table4Row{
			W: w, H: h, Steps: steps,
			RawBytes:          raw,
			ProcessedBytes:    processed,
			ReductionPct:      100 * (1 - float64(processed)/float64(raw)),
			PaperRawGB:        paper[0],
			PaperProcessedMB:  paper[1],
			PaperReductionPct: paper[2],
		})
	}
	return rows
}
