// Package ddr_bench holds the top-level benchmark harness: one benchmark
// per table and figure of the paper's evaluation section, plus ablations
// for the design choices DESIGN.md calls out (pipeline depth, transport,
// chunking technique). Run with:
//
//	go test -bench=. -benchmem .
package ddr_bench

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"ddr/internal/bov"
	"ddr/internal/core"
	"ddr/internal/experiments"
	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/perfmodel"
	"ddr/internal/tiff"
)

// launchInProc and launchTCP adapt mpi.Launch to the fixed-arity
// launcher shape the transport tables share.
func launchInProc(n int, body func(*mpi.Comm) error) error {
	return mpi.Launch(n, body)
}

func launchTCP(n int, body func(*mpi.Comm) error) error {
	return mpi.Launch(n, body, mpi.WithTransport(mpi.TransportTCP))
}

// runE1 performs one full E1 redistribution (descriptor + mapping +
// exchange) on the given runtime flavour, at the paper's serial round
// (depth 1).
func runE1(run func(int, func(*mpi.Comm) error) error) error {
	return run(4, func(c *mpi.Comm) error {
		own, need := experiments.E1Geometry(c.Rank())
		desc, err := core.NewDescriptor(4, core.Layout2D, core.Float32, core.WithPipelineDepth(1))
		if err != nil {
			return err
		}
		if err := desc.SetupDataMapping(c, own, need); err != nil {
			return err
		}
		bufs := [][]byte{make([]byte, own[0].Volume()*4), make([]byte, own[1].Volume()*4)}
		return desc.ReorganizeData(c, bufs, make([]byte, need.Volume()*4))
	})
}

// BenchmarkTable1E1 measures the complete running example of Table I /
// Figure 1: world spin-up, mapping setup, and the two-round exchange.
func BenchmarkTable1E1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := runE1(launchInProc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStack lazily generates the benchmark TIFF stack shared by the
// Table II benchmarks.
var benchStack struct {
	once sync.Once
	info tiff.StackInfo
	err  error
}

func stackInfo(b *testing.B) tiff.StackInfo {
	benchStack.once.Do(func() {
		dir, err := os.MkdirTemp("", "ddr-bench-stack-*")
		if err != nil {
			benchStack.err = err
			return
		}
		if err := tiff.WriteStack(dir, 128, 64, 32, 16, tiff.FormatUint); err != nil {
			benchStack.err = err
			return
		}
		benchStack.info, benchStack.err = tiff.ProbeStack(dir)
	})
	if benchStack.err != nil {
		b.Fatal(benchStack.err)
	}
	return benchStack.info
}

// BenchmarkTable2TIFFLoad measures the real laptop-scale analogue of
// Table II: parallel stack loading without DDR and with both DDR
// techniques, 8 ranks.
func BenchmarkTable2TIFFLoad(b *testing.B) {
	info := stackInfo(b)
	bytes := int64(info.Width) * int64(info.Height) * int64(info.Depth) * int64(info.BytesPerSample())
	cases := []struct {
		name string
		load func(c *mpi.Comm) error
	}{
		{"NoDDR", func(c *mpi.Comm) error {
			_, err := experiments.LoadStackNoDDR(c, info)
			return err
		}},
		{"DDR-RoundRobin", func(c *mpi.Comm) error {
			_, err := experiments.LoadStackDDR(c, info, experiments.RoundRobin)
			return err
		}},
		{"DDR-Consecutive", func(c *mpi.Comm) error {
			_, err := experiments.LoadStackDDR(c, info, experiments.Consecutive)
			return err
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				if err := mpi.Launch(8, tc.load); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3Schedule measures computing the exact paper-scale
// communication schedules (the content of Table III) for every scale and
// technique.
func BenchmarkTable3Schedule(b *testing.B) {
	domain := experiments.PaperDomain()
	for _, tech := range []experiments.Technique{experiments.RoundRobin, experiments.Consecutive} {
		for _, p := range experiments.PaperScales {
			b.Run(fmt.Sprintf("%v-%d", tech, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := experiments.ScheduleFor(domain, p, tech, 4); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable4DataReduction measures the Table IV pipeline per frame: a
// real LBM step batch, vorticity, colormap, and JPEG encode.
func BenchmarkTable4DataReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MeasureJPEGBytesPerPixel(162, 65, 20, 2, 5, 75); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Render measures the parallel DVR rendering of the
// synthetic CT volume (Figure 2) on 8 ranks.
func BenchmarkFigure2Render(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RenderFigure2(64, 64, 48, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Scaling measures producing the full Figure 3 series
// (exact schedules at all four scales plus the machine model).
func BenchmarkFigure3Scaling(b *testing.B) {
	m := perfmodel.Cooley()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Streaming measures the M-to-N in-transit pipeline
// (Figure 4) per streamed frame batch: 4 simulation ranks, 2 analysis
// ranks, two frames.
func BenchmarkFigure4Streaming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunInTransit(experiments.InTransitConfig{
			M: 4, N: 2,
			GridW: 96, GridH: 48,
			Iterations:  10,
			OutputEvery: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Regrid measures the slab-to-rectangle redistribution of
// Figure 5 on the consumer group (10 slabs onto 4 rectangles).
func BenchmarkFigure5Regrid(b *testing.B) {
	const m, n = 10, 4
	const w, h = 640, 400
	domain := grid.Box2(0, 0, w, h)
	starts := grid.SplitEven(h, m)
	blocks := grid.SplitEven(m, n)
	rows, cols := grid.Factor2(n)
	squares := grid.Grid2D(domain, rows, cols)
	b.SetBytes(int64(w) * int64(h) * 4)
	for i := 0; i < b.N; i++ {
		err := mpi.Launch(n, func(c *mpi.Comm) error {
			var own []core.Chunk
			for p := blocks[c.Rank()]; p < blocks[c.Rank()+1]; p++ {
				box := grid.Box2(0, starts[p], w, starts[p+1]-starts[p])
				own = append(own, core.Chunk{Box: box, Data: make([]byte, box.Volume()*4)})
			}
			_, err := core.Redistribute(c, core.Layout2D, core.Float32, own, squares[c.Rank()],
				core.WithPipelineDepth(1)) // the paper's serial round
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPipelineDepth compares the paper's serial rounds
// (depth 1, one step per MPI_Alltoallw) with the default pipelined
// exchange on a 3D slab-to-pencil redistribution: four slabs per rank,
// dealt round-robin, so the plan has four rounds to overlap.
func BenchmarkAblationPipelineDepth(b *testing.B) {
	const procs, slabsPerRank = 8, 4
	domain := grid.Box3(0, 0, 0, 64, 32, 32)
	slabs := grid.Slabs(domain, 2, procs*slabsPerRank)
	pencils := grid.Slabs(domain, 0, procs)
	for _, depth := range []int{1, core.DefaultPipelineDepth} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.SetBytes(int64(domain.Volume()) * 4)
			for i := 0; i < b.N; i++ {
				err := mpi.Launch(procs, func(c *mpi.Comm) error {
					desc, err := core.NewDescriptor(procs, core.Layout3D, core.Float32,
						core.WithPipelineDepth(depth))
					if err != nil {
						return err
					}
					var mine []grid.Box
					var bufs [][]byte
					for j := c.Rank(); j < len(slabs); j += procs {
						mine = append(mine, slabs[j])
						bufs = append(bufs, make([]byte, slabs[j].Volume()*4))
					}
					if err := desc.SetupDataMapping(c, mine, pencils[c.Rank()]); err != nil {
						return err
					}
					return desc.ReorganizeData(c, bufs, make([]byte, pencils[c.Rank()].Volume()*4))
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTransports compares the in-process and TCP transports
// on the same redistribution.
func BenchmarkAblationTransports(b *testing.B) {
	for _, tr := range []struct {
		name string
		run  func(int, func(*mpi.Comm) error) error
	}{{"inproc", launchInProc}, {"tcp", launchTCP}} {
		b.Run(tr.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := runE1(tr.run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReorganizeThroughput measures steady-state ReorganizeData
// throughput (mapping reused, fresh data each call) for growing domains —
// the dynamic-data path that dominates in-transit workloads.
func BenchmarkReorganizeThroughput(b *testing.B) {
	for _, side := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
			const procs = 4
			domain := grid.Box2(0, 0, side, side)
			slabs := grid.Slabs(domain, 1, procs)
			rows, cols := grid.Factor2(procs)
			squares := grid.Grid2D(domain, rows, cols)
			b.SetBytes(int64(domain.Volume()) * 4)
			err := mpi.Launch(procs, func(c *mpi.Comm) error {
				desc, err := core.NewDescriptor(procs, core.Layout2D, core.Float32)
				if err != nil {
					return err
				}
				slab := slabs[c.Rank()]
				if err := desc.SetupDataMapping(c, []grid.Box{slab}, squares[c.Rank()]); err != nil {
					return err
				}
				src := make([]byte, slab.Volume()*4)
				dst := make([]byte, squares[c.Rank()].Volume()*4)
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				for i := 0; i < b.N; i++ {
					if err := desc.ReorganizeData(c, [][]byte{src}, dst); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblationRestartIO compares the two restart strategies on a
// real shared checkpoint file: direct strided brick reads versus one
// sequential slab read per rank followed by a DDR redistribution.
func BenchmarkAblationRestartIO(b *testing.B) {
	dir := b.TempDir()
	h := bov.Header{Dims: [3]int{96, 48, 54}, ElemSize: 1}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRestartStudy(
			fmt.Sprintf("%s/ckpt-%d.bov", dir, i), 8, 27, h)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Match {
			b.Fatal("restart strategies disagree")
		}
	}
}
