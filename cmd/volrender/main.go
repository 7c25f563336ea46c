// Command volrender loads a TIFF slice stack in parallel with DDR (use
// case A end to end) and renders it with the software direct-volume
// renderer, writing a PNG. Example:
//
//	tiffgen -dir /tmp/stack
//	volrender -stack /tmp/stack -procs 8 -out tooth.png
package main

import (
	"flag"
	"fmt"
	"image"
	"os"
	"sync"

	"ddr/internal/colormap"
	"ddr/internal/experiments"
	"ddr/internal/mpi"
	"ddr/internal/render"
	"ddr/internal/tiff"
)

func main() {
	var (
		stack = flag.String("stack", "stack", "directory holding the TIFF slice stack")
		procs = flag.Int("procs", 8, "number of ranks")
		tech  = flag.String("technique", "consecutive", "slice assignment: round-robin or consecutive")
		out   = flag.String("out", "volume.png", "output PNG path")
		axis  = flag.String("axis", "+z", "viewing axis: +x -x +y -y +z -z")
	)
	flag.Parse()
	if err := run(*stack, *procs, *tech, *out, *axis); err != nil {
		fmt.Fprintln(os.Stderr, "volrender:", err)
		os.Exit(1)
	}
}

func run(stack string, procs int, tech, out, axis string) error {
	info, err := tiff.ProbeStack(stack)
	if err != nil {
		return err
	}
	technique := experiments.Consecutive
	if tech == "round-robin" {
		technique = experiments.RoundRobin
	}
	views := map[string]render.ViewAxis{
		"+x": render.ViewXPlus, "-x": render.ViewXMinus,
		"+y": render.ViewYPlus, "-y": render.ViewYMinus,
		"+z": render.ViewZPlus, "-z": render.ViewZMinus,
	}
	view, ok := views[axis]
	if !ok {
		return fmt.Errorf("unknown axis %q", axis)
	}
	frameW, frameH := view.FrameDims(info.Width, info.Height, info.Depth)
	var (
		mu    sync.Mutex
		frame *image.RGBA
	)
	err = mpi.Launch(procs, func(c *mpi.Comm) error {
		res, err := experiments.LoadStackDDR(c, info, technique)
		if err != nil {
			return err
		}
		partial, err := render.RenderBrickAxis(res.Brick, render.CTTransfer, view)
		if err != nil {
			return err
		}
		img, err := render.GatherComposite(c, 0, partial, frameW, frameH)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			frame = img
			mu.Unlock()
			fmt.Printf("rank 0: read %d of %d images; %v\n", res.ImagesRead, info.Depth, res.Stats)
		}
		return nil
	})
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := colormap.EncodePNG(f, frame); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("rendered %d-slice volume along %s on %d ranks (%dx%d frame) -> %s\n",
		info.Depth, axis, procs, frameW, frameH, out)
	return nil
}
