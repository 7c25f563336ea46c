package experiments

import (
	"bytes"
	"fmt"
	"image"
	"os"
	"path/filepath"
	"sync"

	"ddr/internal/colormap"
	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/lbm"
	"ddr/internal/mpi"
	"ddr/internal/transit"
)

// FieldNames that the in-transit pipeline can stream per step. The paper
// visualizes vorticity and notes that velocity, density, and other
// variables can be streamed the same way with similar compression.
var FieldNames = []string{"vorticity", "speed", "density"}

// InTransitConfig parameterizes the use-case-B pipeline: M simulation
// ranks run the LBM and stream field slabs to N analysis ranks, which
// regrid them with DDR, render, and JPEG-encode each frame (the paper ran
// M=128, N=32, 20000 iterations with output every 100).
type InTransitConfig struct {
	M, N          int
	GridW, GridH  int
	Iterations    int
	OutputEvery   int
	JPEGQuality   int
	OutDir        string   // when non-empty, frames are written there
	GIFPath       string   // when non-empty, an animated GIF of the first field is written
	StatsPath     string   // when non-empty, per-frame field statistics are written as CSV
	Fields        []string // streamed variables; default ["vorticity"]
	Viscosity     float64
	InletVelocity float64

	// Telemetry, when non-nil, attaches the run to a trace recorder
	// and/or metrics registry: message-layer counters on the world
	// communicator, DDR plan/exchange instrumentation on the consumer
	// descriptor, and per-phase pipeline spans on both roles. When its
	// MergeOut is set, the run ends with a collective trace merge and
	// rank 0 writes the clock-corrected multi-rank timeline.
	Telemetry *Telemetry

	// Transport selects how the M+N in-process ranks talk: "" or
	// "inproc" uses the shared mailbox, "tcp" runs every rank on the
	// loopback TCP transport (frames, chunking, real wire behaviour),
	// and "shm" on mmap-backed shared-memory rings.
	Transport string

	// MemBudget, when positive, caps each consumer rank's exchange
	// staging footprint in bytes (core.WithMemoryBudget): a rank whose
	// one-shot footprint for a frame would exceed it regrids through the
	// bounded step compiler instead.
	MemBudget int

	// PipelineDepth, when positive, sets how many exchange rounds the
	// consumer descriptor keeps in flight (core.WithPipelineDepth):
	// 1 forces serial rounds, k ≥ 2 overlaps pack and unpack with wire
	// time through k staging-buffer sets. 0 keeps the library default.
	// Under MemBudget the effective depth is clamped so the deeper
	// staging ring still fits the budget.
	PipelineDepth int
}

func (cfg *InTransitConfig) fillDefaults() {
	if cfg.JPEGQuality == 0 {
		cfg.JPEGQuality = 75
	}
	if cfg.Viscosity == 0 {
		cfg.Viscosity = 0.02
	}
	if cfg.InletVelocity == 0 {
		cfg.InletVelocity = 0.1
	}
	if len(cfg.Fields) == 0 {
		cfg.Fields = []string{"vorticity"}
	}
}

func (cfg *InTransitConfig) validateFields() error {
	for _, f := range cfg.Fields {
		ok := false
		for _, known := range FieldNames {
			if f == known {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("experiments: unknown field %q (have %v)", f, FieldNames)
		}
	}
	return nil
}

// InTransitResult summarizes a pipeline run.
type InTransitResult struct {
	Frames         int   // steps × fields rendered
	RawBytes       int64 // float32 field bytes that would have been written
	ProcessedBytes int64 // JPEG bytes actually produced
	ReductionPct   float64
	LastFrame      *image.RGBA  // final rendered frame (for inspection)
	Stats          []FrameStats // per-frame reductions (when StatsPath set)
}

// prepare fills the defaults and rejects a configuration the pipeline
// cannot run.
func (cfg *InTransitConfig) prepare() error {
	cfg.fillDefaults()
	if cfg.M < 1 || cfg.N < 1 {
		return fmt.Errorf("experiments: need at least one simulation and one analysis rank, have %d and %d", cfg.M, cfg.N)
	}
	if cfg.OutputEvery <= 0 || cfg.Iterations < cfg.OutputEvery {
		return fmt.Errorf("experiments: need OutputEvery in (0, Iterations]")
	}
	return cfg.validateFields()
}

// RunInTransit executes the full in-transit pipeline on M+N in-process
// ranks and returns the consumer-side accounting.
func RunInTransit(cfg InTransitConfig) (*InTransitResult, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	launchOpts, err := transportLaunchOpts(cfg.Transport)
	if err != nil {
		return nil, err
	}
	var (
		mu  sync.Mutex
		res *InTransitResult
	)
	err = mpi.Launch(cfg.M+cfg.N, func(world *mpi.Comm) error {
		r, err := inTransitRank(world, cfg)
		if r != nil {
			mu.Lock()
			res = r
			mu.Unlock()
		}
		return err
	}, append(launchOpts, cfg.Telemetry.launchOpts()...)...)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("experiments: consumer root produced no result")
	}
	return res, nil
}

// inTransitRank is the pipeline's body on one rank of an M+N world,
// however the world was formed: the coupling splits producers from
// consumers, producers run the LBM and stream their slabs, consumers
// regrid and render them. Consumer rank 0 returns the accounting; every
// other rank returns nil.
func inTransitRank(world *mpi.Comm, cfg InTransitConfig) (*InTransitResult, error) {
	cp, err := transit.NewCoupling(world, cfg.M, cfg.N)
	if err != nil {
		return nil, err
	}
	var res *InTransitResult
	if cp.Role == transit.Producer {
		err = runProducer(cp, cfg)
	} else {
		res, err = runConsumer(cp, cfg)
	}
	if err != nil {
		return nil, err
	}
	return res, cfg.Telemetry.MergeAndWrite(world)
}

// producerField extracts one named field from the simulation slab.
func producerField(sim *lbm.Parallel, name string) ([]float32, error) {
	switch name {
	case "vorticity":
		return sim.Vorticity()
	case "speed":
		return sim.Slab.SpeedField(), nil
	case "density":
		return sim.Slab.DensityField(), nil
	}
	return nil, fmt.Errorf("experiments: unknown field %q", name)
}

// runProducer advances the slab-decomposed LBM on the producer group and
// streams the selected field slabs to its consumer every OutputEvery
// iterations.
func runProducer(cp *transit.Coupling, cfg InTransitConfig) error {
	local := cp.Local
	sim, err := lbm.NewParallel(local, lbm.Params{
		Width:         cfg.GridW,
		Height:        cfg.GridH,
		Viscosity:     cfg.Viscosity,
		InletVelocity: cfg.InletVelocity,
		Barrier:       lbm.CylinderBarrier(cfg.GridW/4, cfg.GridH/2, cfg.GridH/9),
	})
	if err != nil {
		return err
	}
	tel := cfg.Telemetry
	lane := local.WorldRank(local.Rank())
	step := 0
	endSim := tel.phase(lane, "sim")
	for it := 1; it <= cfg.Iterations; it++ {
		if err := sim.Step(); err != nil {
			return err
		}
		if it%cfg.OutputEvery != 0 {
			continue
		}
		endSim()
		endSend := tel.phase(lane, "extract+send")
		fields := make([][]float32, len(cfg.Fields))
		for i, name := range cfg.Fields {
			if fields[i], err = producerField(sim, name); err != nil {
				return err
			}
		}
		payload, err := transit.EncodeFields(cfg.Fields, fields)
		if err != nil {
			return err
		}
		if err := cp.Send(step, payload); err != nil {
			return err
		}
		endSend()
		step++
		endSim = tel.phase(lane, "sim")
	}
	return nil
}

// runConsumer receives field slabs, regrids each with DDR into this
// consumer's near-square rectangle (Figure 5), and assembles/encodes each
// frame at consumer rank 0. Only rank 0 returns a result.
func runConsumer(cp *transit.Coupling, cfg InTransitConfig) (*InTransitResult, error) {
	local := cp.Local
	tel := cfg.Telemetry
	lane := local.WorldRank(local.Rank())
	domain := grid.Box2(0, 0, cfg.GridW, cfg.GridH)
	// Producer slabs follow the LBM row split across M producers.
	starts := grid.SplitEven(cfg.GridH, cfg.M)
	slabBox := func(p int) grid.Box {
		return grid.Box2(0, starts[p], cfg.GridW, starts[p+1]-starts[p])
	}
	rows, cols := grid.Factor2(cfg.N)
	squares := grid.Grid2D(domain, rows, cols)
	need := squares[local.Rank()]

	// The mapping is constant across frames and fields (the paper's key
	// point): set it up once and replay ReorganizeData per arrival.
	lo, hi := cp.ProducersOf(local.Rank())
	myChunks := make([]grid.Box, 0, hi-lo)
	for p := lo; p < hi; p++ {
		myChunks = append(myChunks, slabBox(p))
	}
	dopts := tel.coreOpts()
	if cfg.MemBudget > 0 {
		dopts = append(dopts, core.WithMemoryBudget(cfg.MemBudget))
	}
	if cfg.PipelineDepth > 0 {
		dopts = append(dopts, core.WithPipelineDepth(cfg.PipelineDepth))
	}
	desc, err := core.NewDescriptor(local.Size(), core.Layout2D, core.Float32, dopts...)
	if err != nil {
		return nil, err
	}
	if err := desc.SetupDataMapping(local, myChunks, need); err != nil {
		return nil, err
	}

	res := &InTransitResult{}
	needBuf := make([]byte, need.Volume()*4)
	var gifFrames []*image.RGBA
	steps := cfg.Iterations / cfg.OutputEvery
	for step := 0; step < steps; step++ {
		endRecv := tel.phase(lane, "recv")
		msgs, err := cp.Recv(step)
		if err != nil {
			return nil, err
		}
		endRecv()
		// Decode every producer's frame once; index per field below.
		endDecode := tel.phase(lane, "decode")
		perProducer := make([][][]float32, len(msgs))
		for i, msg := range msgs {
			names, fields, err := transit.DecodeFields(msg.Data)
			if err != nil {
				return nil, fmt.Errorf("experiments: producer %d step %d: %w", msg.ProducerRank, step, err)
			}
			if len(names) != len(cfg.Fields) {
				return nil, fmt.Errorf("experiments: producer %d sent %d fields, want %d",
					msg.ProducerRank, len(names), len(cfg.Fields))
			}
			for fi, name := range names {
				if name != cfg.Fields[fi] {
					return nil, fmt.Errorf("experiments: field order mismatch: %q vs %q", name, cfg.Fields[fi])
				}
				if len(fields[fi]) != myChunks[i].Volume() {
					return nil, fmt.Errorf("experiments: field %q from producer %d has %d values, want %d",
						name, msg.ProducerRank, len(fields[fi]), myChunks[i].Volume())
				}
			}
			perProducer[i] = fields
		}
		endDecode()

		for fi, name := range cfg.Fields {
			bufs := make([][]byte, len(msgs))
			for i := range msgs {
				bufs[i] = lbm.Float32sToBytes(perProducer[i][fi])
			}
			endRegrid := tel.phase(lane, "regrid")
			if err := desc.ReorganizeData(local, bufs, needBuf); err != nil {
				return nil, err
			}
			endRegrid()
			if cfg.StatsPath != "" {
				fs, err := computeFrameStats(local, step, name, lbm.BytesToFloat32s(needBuf))
				if err != nil {
					return nil, err
				}
				if local.Rank() == 0 {
					res.Stats = append(res.Stats, fs)
				}
			}

			// Assemble the full frame at consumer rank 0 and encode it.
			endGather := tel.phase(lane, "gather")
			parts, err := local.Gather(0, needBuf)
			endGather()
			if err != nil {
				return nil, err
			}
			if local.Rank() != 0 {
				continue
			}
			endRender := tel.phase(lane, "render+encode")
			field := make([]float32, cfg.GridW*cfg.GridH)
			for r, part := range parts {
				vals := lbm.BytesToFloat32s(part)
				box := squares[r]
				for y := 0; y < box.Dims[1]; y++ {
					copy(field[(box.Offset[1]+y)*cfg.GridW+box.Offset[0]:],
						vals[y*box.Dims[0]:(y+1)*box.Dims[0]])
				}
			}
			var img *image.RGBA
			if name == "vorticity" {
				loV, hiV := colormap.SymmetricRange(field)
				img, err = colormap.FieldToImage(field, cfg.GridW, cfg.GridH, loV, hiV, colormap.BlueWhiteRed)
			} else {
				loV, hiV := fieldRange(field)
				img, err = colormap.FieldToImage(field, cfg.GridW, cfg.GridH, loV, hiV, colormap.Heat)
			}
			if err != nil {
				return nil, err
			}
			var jbuf bytes.Buffer
			if err := colormap.EncodeJPEG(&jbuf, img, cfg.JPEGQuality); err != nil {
				return nil, err
			}
			endRender()
			if cfg.OutDir != "" {
				path := filepath.Join(cfg.OutDir, fmt.Sprintf("frame_%04d_%s.jpg", step, name))
				if err := os.WriteFile(path, jbuf.Bytes(), 0o644); err != nil {
					return nil, err
				}
			}
			res.Frames++
			res.RawBytes += int64(cfg.GridW) * int64(cfg.GridH) * 4
			res.ProcessedBytes += int64(jbuf.Len())
			res.LastFrame = img
			if cfg.GIFPath != "" && fi == 0 {
				gifFrames = append(gifFrames, img)
			}
		}
	}
	if cfg.StatsPath != "" && local.Rank() == 0 {
		f, err := os.Create(cfg.StatsPath)
		if err != nil {
			return nil, err
		}
		if err := WriteFrameStatsCSV(f, res.Stats); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	if cfg.GIFPath != "" && local.Rank() == 0 {
		f, err := os.Create(cfg.GIFPath)
		if err != nil {
			return nil, err
		}
		if err := colormap.EncodeAnimation(f, gifFrames, 8); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	if local.Rank() != 0 {
		return nil, nil
	}
	if res.RawBytes > 0 {
		res.ReductionPct = 100 * (1 - float64(res.ProcessedBytes)/float64(res.RawBytes))
	}
	return res, nil
}

// fieldRange returns the min/max of a field, padding degenerate ranges.
func fieldRange(vals []float32) (lo, hi float64) {
	lo, hi = float64(vals[0]), float64(vals[0])
	for _, v := range vals {
		f := float64(v)
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if hi <= lo {
		hi = lo + 1
	}
	return lo, hi
}
