// Package bov implements a shared-file "brick of values" volume format
// with parallel box-granular access — the stand-in for the MPI-IO style
// collective file access the paper's I/O goals assume. Any number of
// ranks (goroutines or processes) can concurrently write disjoint boxes
// of the domain into one file and read arbitrary boxes back, each through
// its own handle, using positional I/O only.
//
// The file layout is an 8-byte magic, a little-endian uint32 header
// length, a JSON header, and the raw row-major samples (x fastest). Runs
// that span full rows (and full planes) are coalesced into single
// positional operations, so slab-shaped access — the layout DDR then
// redistributes from — costs one large sequential I/O per rank while
// brick-shaped access degenerates into many small strided operations.
// That asymmetry is exactly the trade the paper's use case A exploits.
package bov

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"

	"ddr/internal/grid"
)

// Magic identifies a bov file.
const Magic = "DDRBOV1\n"

// Header describes the stored volume.
type Header struct {
	Dims     [3]int `json:"dims"` // width, height, depth
	ElemSize int    `json:"elem_size"`
	// Kind is free-form metadata ("uint16 CT", "float32 vorticity", ...).
	Kind string `json:"kind,omitempty"`
}

// Domain returns the volume's box at origin.
func (h Header) Domain() grid.Box {
	return grid.Box3(0, 0, 0, h.Dims[0], h.Dims[1], h.Dims[2])
}

// TotalBytes returns the raw payload size.
func (h Header) TotalBytes() int64 {
	return int64(h.Dims[0]) * int64(h.Dims[1]) * int64(h.Dims[2]) * int64(h.ElemSize)
}

func (h Header) validate() error {
	if h.Dims[0] < 1 || h.Dims[1] < 1 || h.Dims[2] < 1 {
		return fmt.Errorf("bov: invalid dims %v", h.Dims)
	}
	if h.ElemSize < 1 || h.ElemSize > 64 {
		return fmt.Errorf("bov: invalid element size %d", h.ElemSize)
	}
	return nil
}

// File is one handle onto a bov volume. Handles are safe for concurrent
// use across goroutines only insofar as the underlying positional I/O is;
// for parallel access give each rank its own handle via Open.
type File struct {
	f         *os.File
	header    Header
	dataStart int64
	writable  bool
}

// Create makes (or truncates) the volume file at path and sizes it for
// the full payload, so concurrent writers can immediately WriteBox
// anywhere in the domain.
func Create(path string, h Header) (*File, error) {
	if err := h.validate(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdrJSON, err := json.Marshal(h)
	if err != nil {
		f.Close()
		return nil, err
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(hdrJSON)))
	if _, err := f.Write([]byte(Magic)); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Write(lenBuf[:]); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Write(hdrJSON); err != nil {
		f.Close()
		return nil, err
	}
	dataStart := int64(len(Magic)) + 4 + int64(len(hdrJSON))
	if err := f.Truncate(dataStart + h.TotalBytes()); err != nil {
		f.Close()
		return nil, err
	}
	return &File{f: f, header: h, dataStart: dataStart, writable: true}, nil
}

// Open opens an existing volume file read-write.
func Open(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	magic := make([]byte, len(Magic))
	if _, err := f.ReadAt(magic, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("bov: reading magic: %w", err)
	}
	if string(magic) != Magic {
		f.Close()
		return nil, fmt.Errorf("bov: %s is not a bov file", path)
	}
	var lenBuf [4]byte
	if _, err := f.ReadAt(lenBuf[:], int64(len(Magic))); err != nil {
		f.Close()
		return nil, err
	}
	hdrLen := int64(binary.LittleEndian.Uint32(lenBuf[:]))
	if hdrLen > 1<<20 {
		f.Close()
		return nil, fmt.Errorf("bov: implausible header length %d", hdrLen)
	}
	hdrJSON := make([]byte, hdrLen)
	if _, err := f.ReadAt(hdrJSON, int64(len(Magic))+4); err != nil {
		f.Close()
		return nil, err
	}
	var h Header
	if err := json.Unmarshal(hdrJSON, &h); err != nil {
		f.Close()
		return nil, fmt.Errorf("bov: header: %w", err)
	}
	if err := h.validate(); err != nil {
		f.Close()
		return nil, err
	}
	return &File{f: f, header: h, dataStart: int64(len(Magic)) + 4 + hdrLen, writable: true}, nil
}

// Close releases the handle.
func (v *File) Close() error { return v.f.Close() }

// runs invokes fn(fileOffset, bufOffset, length) for each contiguous run
// of the box within the file, coalescing full rows and full planes.
func (v *File) runs(box grid.Box, fn func(fileOff, bufOff int64, n int) error) error {
	h := v.header
	if box.NDims != 3 {
		return fmt.Errorf("bov: box %v is not 3D", box)
	}
	if !h.Domain().Contains(box) {
		return fmt.Errorf("bov: box %v outside volume %v", box, h.Domain())
	}
	es := int64(h.ElemSize)
	w, ht := int64(h.Dims[0]), int64(h.Dims[1])
	rowRun := int64(box.Dims[0]) * es
	fullRow := box.Dims[0] == h.Dims[0]
	fullPlane := fullRow && box.Dims[1] == h.Dims[1]

	var bufOff int64
	if fullPlane {
		n := rowRun * int64(box.Dims[1]) * int64(box.Dims[2])
		start := (int64(box.Offset[2])*ht*w + int64(box.Offset[1])*w + int64(box.Offset[0])) * es
		return fn(v.dataStart+start, 0, int(n))
	}
	for z := 0; z < box.Dims[2]; z++ {
		gz := int64(box.Offset[2] + z)
		if fullRow {
			n := rowRun * int64(box.Dims[1])
			start := (gz*ht*w + int64(box.Offset[1])*w + int64(box.Offset[0])) * es
			if err := fn(v.dataStart+start, bufOff, int(n)); err != nil {
				return err
			}
			bufOff += n
			continue
		}
		for y := 0; y < box.Dims[1]; y++ {
			gy := int64(box.Offset[1] + y)
			start := (gz*ht*w + gy*w + int64(box.Offset[0])) * es
			if err := fn(v.dataStart+start, bufOff, int(rowRun)); err != nil {
				return err
			}
			bufOff += rowRun
		}
	}
	return nil
}

// WriteBox stores data (row-major, x fastest) into the given box of the
// volume. Concurrent WriteBox calls on disjoint boxes are safe.
func (v *File) WriteBox(box grid.Box, data []byte) error {
	if want := box.Volume() * v.header.ElemSize; len(data) != want {
		return fmt.Errorf("bov: %d bytes for box %v, want %d", len(data), box, want)
	}
	return v.runs(box, func(fileOff, bufOff int64, n int) error {
		_, err := v.f.WriteAt(data[bufOff:bufOff+int64(n)], fileOff)
		return err
	})
}

// ReadBox loads the given box of the volume.
func (v *File) ReadBox(box grid.Box) ([]byte, error) {
	out := make([]byte, box.Volume()*v.header.ElemSize)
	err := v.runs(box, func(fileOff, bufOff int64, n int) error {
		_, err := v.f.ReadAt(out[bufOff:bufOff+int64(n)], fileOff)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunCount reports how many positional I/O operations accessing box
// costs — the quantity that makes slab access cheap and brick access
// expensive on this format.
func (v *File) RunCount(box grid.Box) int {
	count := 0
	v.runs(box, func(_, _ int64, _ int) error { //nolint:errcheck
		count++
		return nil
	})
	return count
}
