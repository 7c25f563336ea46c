package core

import (
	"encoding/binary"
	"fmt"
	"slices"

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

// readUvarint consumes one varint from buf.
func readUvarint(buf []byte) (uint64, []byte, error) {
	u, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("core: truncated or malformed varint")
	}
	return u, buf[n:], nil
}

// appendBox appends b delta-encoded against prev, the box before it in
// the stream (or the zero Box). A box of no dimensions — an offline
// geometry's zero Box for a rank outside the group — is its header alone,
// decodes to the zero Box, and is the zero Box as the next box's prev.
func appendBox(buf []byte, b, prev *grid.Box) []byte {
	if prev.NDims == 0 {
		prev = &grid.Box{}
	}
	buf = append(buf, byte(b.NDims))
	for i := 0; i < b.NDims; i++ {
		buf = binary.AppendUvarint(buf, zigzag(b.Offset[i]-prev.Offset[i]))
		buf = binary.AppendUvarint(buf, zigzag(b.Dims[i]-prev.Dims[i]))
	}
	return buf
}

// readBox consumes one delta-encoded box into b, decoded against prev as
// appendBox encoded it. It reads the
// one-byte varints every nearby box is made of inline: a decode reads
// every rank's boxes on every rank, once per miss.
func readBox(buf []byte, b, prev *grid.Box) ([]byte, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("core: box header: truncated or malformed varint")
	}
	if buf[0] > grid.MaxDims { // a longer varint is out of range too
		return nil, fmt.Errorf("core: box dimensionality out of range (header byte %d)", buf[0])
	}
	if prev.NDims == 0 {
		prev = &grid.Box{}
	}
	*b = grid.Box{NDims: int(buf[0])}
	i := 1
	for a := range grid.MaxDims {
		if a >= b.NDims {
			b.Dims[a] = 1
			continue
		}
		var delta [2]int // offset, extent
		for k := range delta {
			if i < len(buf) && buf[i] < 0x80 {
				delta[k], i = unzigzag(uint64(buf[i])), i+1
				continue
			}
			u, n := binary.Uvarint(buf[i:])
			if n <= 0 {
				return nil, fmt.Errorf("core: box axis %d: truncated or malformed varint", a)
			}
			delta[k], i = unzigzag(u), i+n
		}
		b.Offset[a] = prev.Offset[a] + delta[0]
		if b.Dims[a] = prev.Dims[a] + delta[1]; b.Dims[a] < 0 {
			return nil, fmt.Errorf("core: negative extent %d on axis %d", b.Dims[a], a)
		}
	}
	if b.NDims == 0 {
		*b = grid.Box{}
	}
	return buf[i:], nil
}

// encodeGeometry packs a rank's need box and owned chunks for the
// allgather in SetupDataMapping. The output is canonical: equal
// geometries encode to equal bytes.
func encodeGeometry(need grid.Box, own []grid.Box) []byte {
	return appendGeometry(make([]byte, 0, 16+8*len(own)), need, own)
}

// appendGeometry appends encodeGeometry's bytes to buf.
func appendGeometry(buf []byte, need grid.Box, own []grid.Box) []byte {
	buf = append(buf, geomVersion)
	buf = appendBox(buf, &need, &grid.Box{})
	buf = binary.AppendUvarint(buf, uint64(len(own)))
	prev := &need
	for i := range own {
		buf = appendBox(buf, &own[i], prev)
		prev = &own[i]
	}
	return buf
}

// encodeWorld encodes a P-rank geometry the way SetupDataMapping's
// allgather delivers it, every rank's encoding a slice of one buffer: the
// world an offline plan keeps.
func encodeWorld(needs []grid.Box, chunks [][]grid.Box) [][]byte {
	size := 0
	for r := range needs {
		size += 16 + 8*len(chunks[r])
	}
	buf := make([]byte, 0, size)
	packed := make([][]byte, len(needs))
	for r := range needs {
		lo := len(buf)
		buf = appendGeometry(buf, needs[r], chunks[r])
		packed[r] = buf[lo:len(buf):len(buf)]
	}
	return packed
}

// geomTable is a gathered geometry decoded: needs[r] is rank r's need box
// and chunks[r] its owned chunks, which slice the one flat table of every
// rank's chunks.
type geomTable struct {
	needs  []grid.Box
	chunks [][]grid.Box
	flat   []grid.Box
}

// decode reverses encodeGeometry for a whole allgather into t, reusing
// t's slices: the headers are read first to size the flat table, and a
// table that has held a world as large allocates nothing, whatever the
// number of ranks and boxes. A fresh table allocates three slices.
func (t *geomTable) decode(packed [][]byte) error {
	total := uint64(0)
	for _, buf := range packed {
		_, n, _, _ := readGeometryHeader(buf) // 0 on error, which the decode below reports
		total += n
	}
	t.needs = slices.Grow(t.needs[:0], len(packed))[:len(packed)]
	t.chunks = slices.Grow(t.chunks[:0], len(packed))[:len(packed)]
	t.flat = slices.Grow(t.flat[:0], int(total))
	for r, buf := range packed {
		need, n, buf, err := readGeometryHeader(buf)
		prev, lo := &need, len(t.flat)
		t.flat = t.flat[:lo+int(n)] // within the capacity the headers sized
		for k := lo; k < len(t.flat) && err == nil; k++ {
			buf, err = readBox(buf, &t.flat[k], prev)
			prev = &t.flat[k]
		}
		if err == nil && len(buf) != 0 {
			err = fmt.Errorf("core: %d trailing bytes after geometry", len(buf))
		}
		if err != nil {
			return fmt.Errorf("core: geometry from rank %d: %w", r, err)
		}
		t.needs[r], t.chunks[r] = need, t.flat[lo:len(t.flat):len(t.flat)]
	}
	return nil
}

// decodeGeometries decodes a whole allgather into a fresh table.
func decodeGeometries(packed [][]byte) (needs []grid.Box, chunks [][]grid.Box, err error) {
	var t geomTable
	if err := t.decode(packed); err != nil {
		return nil, nil, err
	}
	return t.needs, t.chunks, nil
}

// readGeometryHeader consumes the head of one rank's stream: version,
// need box and chunk count; the chunks follow in rest.
func readGeometryHeader(buf []byte) (need grid.Box, n uint64, rest []byte, err error) {
	if len(buf) < 1 || buf[0] != geomVersion {
		return grid.Box{}, 0, nil, fmt.Errorf("core: unsupported geometry encoding version")
	}
	if rest, err = readBox(buf[1:], &need, &grid.Box{}); err != nil {
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
