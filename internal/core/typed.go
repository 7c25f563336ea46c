package core

import (
	"fmt"

	"ddr/internal/fielddata"
	"ddr/internal/mpi"
)

// ReorganizeFloat32 is ReorganizeData for float32 fields: owned chunk
// slices in, redistributed values written into need. The descriptor's
// element size must be 4. Conversion copies; performance-critical callers
// should keep their data as []byte and use ReorganizeData directly.
func (d *Descriptor) ReorganizeFloat32(c *mpi.Comm, own [][]float32, need []float32) error {
	if d.elemSize != 4 {
		return fmt.Errorf("core: ReorganizeFloat32 on a descriptor with %d-byte elements", d.elemSize)
	}
	ownBytes := make([][]byte, len(own))
	for i, chunk := range own {
		ownBytes[i] = fielddata.Float32Bytes(chunk)
	}
	needBytes := fielddata.Float32Bytes(need)
	if err := d.ReorganizeData(c, ownBytes, needBytes); err != nil {
		return err
	}
	copy(need, fielddata.BytesFloat32(needBytes))
	return nil
}
