package core

import (
	"encoding/binary"
	"fmt"

	"ddr/internal/grid"
)

// Geometry exchange wire format v2: every rank contributes its need box
// followed by its owned chunk list, encoded compactly — the allgather
// payload is O(P·chunks) per rank and O(P²·chunks) in flight, so its size
// is what bounds SetupDataMapping's communication at scale.
//
// All integers are varints. Box coordinates are delta-encoded against the
// previous box in the same stream (zigzag for the signed deltas): chunk
// lists are typically adjacent slabs or slices of one another, so deltas
// are tiny and a box costs a few bytes instead of the fixed 28 of the v1
// fixed-width encoding. The encoding is canonical — one byte stream per
// geometry — which lets the same bytes double as the input of the plan
// cache's geometry fingerprint (see plancache.go).

// geomVersion guards against mixed-build worlds decoding each other's
// geometry streams.
const geomVersion = 2

// zigzag maps a signed delta onto the unsigned varint space.
func zigzag(v int) uint64 { return uint64((int64(v) << 1) ^ (int64(v) >> 63)) }

// unzigzag reverses zigzag.
func unzigzag(u uint64) int { return int(int64(u>>1) ^ -int64(u&1)) }

// appendUvarint appends u as a varint.
func appendUvarint(buf []byte, u uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], u)
	return append(buf, tmp[:n]...)
}

// readUvarint consumes one varint from buf.
func readUvarint(buf []byte) (uint64, []byte, error) {
	u, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("core: truncated or malformed varint")
	}
	return u, buf[n:], nil
}

// appendBox appends b delta-encoded against prev and advances prev.
func appendBox(buf []byte, b grid.Box, prev *grid.Box) []byte {
	buf = appendUvarint(buf, uint64(b.NDims))
	for i := 0; i < b.NDims; i++ {
		buf = appendUvarint(buf, zigzag(b.Offset[i]-prev.Offset[i]))
		buf = appendUvarint(buf, zigzag(b.Dims[i]-prev.Dims[i]))
	}
	*prev = b
	return buf
}

// readBox consumes one delta-encoded box and advances prev.
func readBox(buf []byte, prev *grid.Box) (grid.Box, []byte, error) {
	u, buf, err := readUvarint(buf)
	if err != nil {
		return grid.Box{}, nil, fmt.Errorf("core: box header: %w", err)
	}
	if u < 1 || u > grid.MaxDims {
		return grid.Box{}, nil, fmt.Errorf("core: box dimensionality %d out of range", u)
	}
	b := grid.Box{NDims: int(u)}
	for i := range b.Dims {
		b.Dims[i] = 1
	}
	for i := 0; i < b.NDims; i++ {
		if u, buf, err = readUvarint(buf); err != nil {
			return grid.Box{}, nil, fmt.Errorf("core: box offset axis %d: %w", i, err)
		}
		b.Offset[i] = prev.Offset[i] + unzigzag(u)
		if u, buf, err = readUvarint(buf); err != nil {
			return grid.Box{}, nil, fmt.Errorf("core: box extent axis %d: %w", i, err)
		}
		if b.Dims[i] = prev.Dims[i] + unzigzag(u); b.Dims[i] < 0 {
			return grid.Box{}, nil, fmt.Errorf("core: negative extent %d on axis %d", b.Dims[i], i)
		}
	}
	*prev = b
	return b, buf, nil
}

// encodeGeometry packs a rank's need box and owned chunks for the
// allgather in SetupDataMapping. The output is canonical: equal
// geometries encode to equal bytes.
func encodeGeometry(need grid.Box, own []grid.Box) []byte {
	buf := append(make([]byte, 0, 16+8*len(own)), geomVersion)
	var prev grid.Box
	buf = appendBox(buf, need, &prev)
	buf = appendUvarint(buf, uint64(len(own)))
	for _, b := range own {
		buf = appendBox(buf, b, &prev)
	}
	return buf
}

// decodeGeometries reverses encodeGeometry for a whole allgather:
// needs[r] is rank r's need box and chunks[r] its owned chunks. The
// headers are read first to size one flat table for every rank's chunks,
// which the per-rank lists slice — three allocations whatever the number
// of ranks and boxes.
func decodeGeometries(packed [][]byte) (needs []grid.Box, chunks [][]grid.Box, err error) {
	total := uint64(0)
	for _, buf := range packed {
		_, n, _, _ := readGeometryHeader(buf) // 0 on error, which the decode below reports
		total += n
	}
	needs = make([]grid.Box, len(packed))
	chunks = make([][]grid.Box, len(packed))
	flat := make([]grid.Box, 0, total)
	for r, buf := range packed {
		need, n, buf, err := readGeometryHeader(buf)
		prev, lo := need, len(flat)
		for i := uint64(0); i < n && err == nil; i++ {
			var b grid.Box
			b, buf, err = readBox(buf, &prev)
			flat = append(flat, b)
		}
		if err == nil && len(buf) != 0 {
			err = fmt.Errorf("core: %d trailing bytes after geometry", len(buf))
		}
		if err != nil {
			return nil, nil, fmt.Errorf("core: geometry from rank %d: %w", r, err)
		}
		needs[r], chunks[r] = need, flat[lo:len(flat):len(flat)]
	}
	return needs, chunks, nil
}

// readGeometryHeader consumes the head of one rank's stream: version,
// need box and chunk count; the chunks follow in rest.
func readGeometryHeader(buf []byte) (need grid.Box, n uint64, rest []byte, err error) {
	if len(buf) < 1 || buf[0] != geomVersion {
		return grid.Box{}, 0, nil, fmt.Errorf("core: unsupported geometry encoding version")
	}
	var prev grid.Box
	if need, rest, err = readBox(buf[1:], &prev); err != nil {
		return grid.Box{}, 0, nil, err
	}
	if n, rest, err = readUvarint(rest); err != nil {
		return grid.Box{}, 0, nil, fmt.Errorf("core: chunk count: %w", err)
	}
	if n > uint64(len(rest)) { // every box costs at least one byte
		return grid.Box{}, 0, nil, fmt.Errorf("core: implausible chunk count %d", n)
	}
	return need, n, rest, nil
}
