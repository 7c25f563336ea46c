package bov

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

func tempVolume(t *testing.T, h Header) (*File, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "vol.bov")
	f, err := Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	return f, path
}

func TestHeaderValidation(t *testing.T) {
	if _, err := Create(filepath.Join(t.TempDir(), "x"), Header{Dims: [3]int{0, 1, 1}, ElemSize: 1}); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := Create(filepath.Join(t.TempDir(), "x"), Header{Dims: [3]int{1, 1, 1}, ElemSize: 0}); err == nil {
		t.Error("zero element accepted")
	}
}

func TestCreateOpenRoundTrip(t *testing.T) {
	h := Header{Dims: [3]int{10, 6, 4}, ElemSize: 2, Kind: "uint16 test"}
	f, path := tempVolume(t, h)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.header != h {
		t.Errorf("header %+v, want %+v", g.header, h)
	}
	if g.header.TotalBytes() != 10*6*4*2 {
		t.Errorf("total bytes %d", g.header.TotalBytes())
	}
	// The file is pre-sized.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < h.TotalBytes() {
		t.Errorf("file size %d smaller than payload %d", info.Size(), h.TotalBytes())
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("this is not a bov file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

// fillPattern gives each element a value derived from its coordinates.
func fillPattern(box grid.Box, elem int) []byte {
	out := make([]byte, box.Volume()*elem)
	i := 0
	for z := 0; z < box.Dims[2]; z++ {
		for y := 0; y < box.Dims[1]; y++ {
			for x := 0; x < box.Dims[0]; x++ {
				v := byte(box.Offset[0] + x + 3*(box.Offset[1]+y) + 7*(box.Offset[2]+z))
				for b := 0; b < elem; b++ {
					out[i] = v + byte(b)
					i++
				}
			}
		}
	}
	return out
}

func TestWriteReadBoxes(t *testing.T) {
	h := Header{Dims: [3]int{16, 12, 8}, ElemSize: 2}
	f, _ := tempVolume(t, h)
	defer f.Close()

	// Tile the domain with bricks, write each, read back individually and
	// as other shapes.
	bricks := grid.Bricks3D(h.Domain(), 2, 2, 2)
	for _, b := range bricks {
		if err := f.WriteBox(b, fillPattern(b, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range bricks {
		got, err := f.ReadBox(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fillPattern(b, 2)) {
			t.Fatalf("brick %v mismatch", b)
		}
	}
	// Cross-shaped reads (slabs) must also match.
	for _, slab := range grid.Slabs(h.Domain(), 2, 4) {
		got, err := f.ReadBox(slab)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fillPattern(slab, 2)) {
			t.Fatalf("slab %v mismatch", slab)
		}
	}
	// The whole domain.
	got, err := f.ReadBox(h.Domain())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fillPattern(h.Domain(), 2)) {
		t.Error("full-domain read mismatch")
	}
}

func TestWriteBoxValidation(t *testing.T) {
	h := Header{Dims: [3]int{4, 4, 4}, ElemSize: 1}
	f, _ := tempVolume(t, h)
	defer f.Close()
	if err := f.WriteBox(grid.Box3(0, 0, 0, 2, 2, 2), make([]byte, 7)); err == nil {
		t.Error("short buffer accepted")
	}
	if err := f.WriteBox(grid.Box3(3, 3, 3, 2, 2, 2), make([]byte, 8)); err == nil {
		t.Error("out-of-domain box accepted")
	}
	if _, err := f.ReadBox(grid.Box2(0, 0, 2, 2)); err == nil {
		t.Error("2D box accepted")
	}
}

func TestRunCoalescing(t *testing.T) {
	h := Header{Dims: [3]int{8, 4, 6}, ElemSize: 4}
	f, _ := tempVolume(t, h)
	defer f.Close()
	// Full plane slab: one run.
	if got := f.RunCount(grid.Box3(0, 0, 2, 8, 4, 3)); got != 1 {
		t.Errorf("slab runs = %d, want 1", got)
	}
	// Full rows but partial height: one run per z.
	if got := f.RunCount(grid.Box3(0, 1, 0, 8, 2, 6)); got != 6 {
		t.Errorf("row-span runs = %d, want 6", got)
	}
	// Generic brick: one run per (y,z).
	if got := f.RunCount(grid.Box3(2, 1, 1, 3, 2, 4)); got != 8 {
		t.Errorf("brick runs = %d, want 8", got)
	}
}

// TestParallelWriteThenRead is the checkpoint/restart scenario: 8 ranks
// write their bricks concurrently through private handles; later 4 ranks
// read slabs back and verify.
func TestParallelWriteThenRead(t *testing.T) {
	h := Header{Dims: [3]int{20, 12, 8}, ElemSize: 1}
	path := filepath.Join(t.TempDir(), "ckpt.bov")
	f, err := Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	bricks := grid.Bricks3D(h.Domain(), 2, 2, 2)
	err = mpi.Launch(8, func(c *mpi.Comm) error {
		v, err := Open(path)
		if err != nil {
			return err
		}
		defer v.Close()
		return v.WriteBox(bricks[c.Rank()], fillPattern(bricks[c.Rank()], 1))
	})
	if err != nil {
		t.Fatal(err)
	}
	slabs := grid.Slabs(h.Domain(), 2, 4)
	err = mpi.Launch(4, func(c *mpi.Comm) error {
		v, err := Open(path)
		if err != nil {
			return err
		}
		defer v.Close()
		got, err := v.ReadBox(slabs[c.Rank()])
		if err != nil {
			return err
		}
		if !bytes.Equal(got, fillPattern(slabs[c.Rank()], 1)) {
			t.Errorf("rank %d slab mismatch", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRandomBoxesProperty(t *testing.T) {
	h := Header{Dims: [3]int{15, 9, 7}, ElemSize: 3}
	f, _ := tempVolume(t, h)
	defer f.Close()
	if err := f.WriteBox(h.Domain(), fillPattern(h.Domain(), 3)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		box := grid.RandomBoxIn(rng, h.Domain())
		got, err := f.ReadBox(box)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fillPattern(box, 3)) {
			t.Fatalf("random box %v mismatch", box)
		}
	}
}
