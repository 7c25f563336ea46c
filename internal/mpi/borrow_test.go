package mpi_test

import (
	"bytes"
	"testing"

	"ddr/internal/core"
	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// scribbleWorld runs one redistribution over tcp in which rank 0 owns the
// whole 256x256 float32 domain and every rank needs a column band — a
// strided typed message of 16 KiB to rank 1, packed and queued, and one of
// 176 KiB to rank 2, lent to the writer straight from rank 0's rows. The
// instant ReorganizeData returns, rank 0 inverts every byte of its buffer.
// It reports how many receiving ranks found a need byte that differs from
// the domain as it was before the scribble.
func scribbleWorld() (int, error) {
	domain := grid.Box2(0, 0, 256, 256)
	needs := []grid.Box{grid.Box2(0, 0, 64, 256), grid.Box2(64, 0, 16, 256), grid.Box2(80, 0, 176, 256)}
	orig := make([]byte, domain.Volume()*4)
	for i := range orig {
		orig[i] = byte(i*7 + i>>10)
	}
	bad := make([]bool, len(needs))
	err := mpi.Launch(len(needs), func(c *mpi.Comm) error {
		d, err := core.NewDescriptor(c.Size(), core.Layout2D, core.Float32)
		if err != nil {
			return err
		}
		var own []grid.Box
		var ownBufs [][]byte
		if c.Rank() == 0 {
			own, ownBufs = []grid.Box{domain}, [][]byte{append([]byte(nil), orig...)}
		}
		need := needs[c.Rank()]
		if err := d.SetupDataMapping(c, own, need); err != nil {
			return err
		}
		needBuf := make([]byte, need.Volume()*4)
		if err := d.ReorganizeData(c, ownBufs, needBuf); err != nil {
			return err
		}
		for _, b := range ownBufs {
			for i := range b {
				b[i] = ^b[i]
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		rowBytes := need.Dims[0] * 4
		for y := 0; y < need.Dims[1]; y++ {
			at := (y*domain.Dims[0] + need.Offset[0]) * 4
			if !bytes.Equal(needBuf[y*rowBytes:(y+1)*rowBytes], orig[at:at+rowBytes]) {
				bad[c.Rank()] = true
				break
			}
		}
		return nil
	}, mpi.WithTransport(mpi.TransportTCP), mpi.WithFaultInjector(nil))
	n := 0
	for _, b := range bad {
		if b {
			n++
		}
	}
	return n, err
}

// TestBorrowedSendScribbleAfterReturn: a tcp send lends the owner's rows
// to the writer, and ReorganizeData returning means the writer is done
// with them — the caller may overwrite its own buffers at once and the
// peers still receive what the buffers held during the call.
func TestBorrowedSendScribbleAfterReturn(t *testing.T) {
	bad, err := scribbleWorld()
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d ranks received bytes the owner wrote after ReorganizeData returned", bad)
	}
}

// TestBorrowedSendCatchesEarlyDone proves the scribble test has teeth: a
// writer that hands lent payloads back before writing them (the planted
// bug) must be caught on every one of five runs.
func TestBorrowedSendCatchesEarlyDone(t *testing.T) {
	if mpi.RaceEnabled() {
		t.Skip("the planted bug is a real data race on the lent rows; the detector fires before the byte check can prove its teeth — make verify runs this test without -race")
	}
	mpi.SetPlantEarlyDone(true)
	defer mpi.SetPlantEarlyDone(false)
	for run := 0; run < 5; run++ {
		bad, err := scribbleWorld()
		if err != nil {
			t.Fatal(err)
		}
		if bad == 0 {
			t.Fatalf("run %d: early release went unnoticed — the scribble test is blind", run)
		}
	}
}
