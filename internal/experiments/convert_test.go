package experiments

import (
	"bytes"
	"path/filepath"
	"testing"

	"ddr/internal/bov"
	"ddr/internal/grid"
	"ddr/internal/mpi"
	"ddr/internal/tiff"
)

// TestConvertStackToBOV verifies the parallel format conversion: the bov
// volume must contain exactly the stack's pixels, slice by slice.
func TestConvertStackToBOV(t *testing.T) {
	const w, h, d, procs = 24, 16, 20, 6
	dir := t.TempDir()
	if err := tiff.WriteStack(dir, w, h, d, 16, tiff.FormatUint); err != nil {
		t.Fatal(err)
	}
	info, err := tiff.ProbeStack(dir)
	if err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(t.TempDir(), "vol.bov")
	err = mpi.Launch(procs, func(c *mpi.Comm) error {
		res, err := ConvertStackToBOV(c, info, outPath)
		if err != nil {
			return err
		}
		if c.Rank() == 0 && res.Bytes != int64(w*h*d*2) {
			t.Errorf("converted bytes %d", res.Bytes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	v, err := bov.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	full, err := v.ReadBox(grid.Box3(0, 0, 0, w, h, d))
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != w*h*d*2 {
		t.Fatalf("volume holds %d bytes, want %d of 2-byte elements", len(full), w*h*d*2)
	}
	sliceBytes := w * h * 2
	for z := 0; z < d; z++ {
		img, err := tiff.ReadFile(tiff.SlicePath(dir, z))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(full[z*sliceBytes:(z+1)*sliceBytes], img.Pixels) {
			t.Fatalf("slice %d differs in converted volume", z)
		}
	}
}
