package ddr_bench

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"ddr/internal/bov"
	"ddr/internal/experiments"
	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/tiff"
)

// TestEndToEndConversionPipeline chains the full data path the paper's
// introduction motivates: a TIFF slice stack is generated, converted in
// parallel (every image decoded once, DDR reshaping pixels into write
// slabs) into one shared bov volume whose content matches the stack,
// slice by slice.
func TestEndToEndConversionPipeline(t *testing.T) {
	const w, h, d, procs = 32, 24, 18, 6
	dir := t.TempDir()
	stackDir := filepath.Join(dir, "stack")
	if err := tiff.WriteStack(stackDir, w, h, d, 8, tiff.FormatUint); err != nil {
		t.Fatal(err)
	}
	info, err := tiff.ProbeStack(stackDir)
	if err != nil {
		t.Fatal(err)
	}
	bovPath := filepath.Join(dir, "vol.bov")
	err = mpi.Launch(procs, func(c *mpi.Comm) error {
		_, err := experiments.ConvertStackToBOV(c, info, bovPath)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	v, err := bov.Open(bovPath)
	if err != nil {
		t.Fatal(err)
	}
	full, err := v.ReadBox(grid.Box3(0, 0, 0, w, h, d))
	if err != nil {
		t.Fatal(err)
	}
	v.Close()

	// Volume content equals the stack, slice by slice.
	for z := 0; z < d; z++ {
		img, err := tiff.ReadFile(tiff.SlicePath(stackDir, z))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(full[z*w*h:(z+1)*w*h], img.Pixels) {
			t.Fatalf("slice %d differs after conversion", z)
		}
	}
}

// TestRealTIFFStudySmall runs the measured loading study end to end at
// one small scale, checking the bookkeeping that EXPERIMENTS.md reports.
func TestRealTIFFStudySmall(t *testing.T) {
	dir := t.TempDir()
	if err := tiff.WriteStack(dir, 48, 24, 16, 16, tiff.FormatUint); err != nil {
		t.Fatal(err)
	}
	rows, err := experiments.RunRealTIFFStudy(dir, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3 techniques", len(rows))
	}
	byName := map[string]experiments.RealStudyRow{}
	for _, r := range rows {
		byName[r.Technique] = r
	}
	// Baseline: all 8 ranks read the 8 images intersecting their brick
	// (nz=2 layers over 16 slices), so each image is decoded p/nz = 4
	// times — 64 reads total. DDR reads each image exactly once.
	if byName["no-ddr"].ImagesRead != 64 {
		t.Errorf("baseline read %d images, want 64", byName["no-ddr"].ImagesRead)
	}
	for _, tech := range []string{"ddr-round-robin", "ddr-consecutive"} {
		if byName[tech].ImagesRead != 16 {
			t.Errorf("%s read %d images, want 16", tech, byName[tech].ImagesRead)
		}
		if byName[tech].CommTime <= 0 {
			t.Errorf("%s missing comm time", tech)
		}
	}
	var sb strings.Builder
	experiments.WriteRealStudy(&sb, rows)
	if !strings.Contains(sb.String(), "ddr-consecutive") {
		t.Error("study table missing rows")
	}
}
