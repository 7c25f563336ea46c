// Package tiff implements the subset of TIFF 6.0 the paper's medical-
// imaging use case depends on: single-plane grayscale images with 8, 16,
// or 32 bits per sample (unsigned integer or IEEE float), uncompressed,
// strip-based, in either byte order. CT slice stacks at Argonne's APS are
// stored exactly this way.
//
// The decoder deliberately mirrors the constraint the paper discusses:
// reading any pixel requires decoding the full image, which is what makes
// naive parallel loading so expensive and DDR's single-reader-per-image
// strategy so effective.
package tiff

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// SampleFormat describes how sample bits are interpreted.
type SampleFormat int

// Supported sample formats (TIFF tag 339 values).
const (
	FormatUint  SampleFormat = 1
	FormatFloat SampleFormat = 3
)

func (f SampleFormat) String() string {
	switch f {
	case FormatUint:
		return "uint"
	case FormatFloat:
		return "float"
	}
	return fmt.Sprintf("SampleFormat(%d)", int(f))
}

// Image is a decoded grayscale image. Pixels holds Width*Height samples
// row-major, each BitsPerSample/8 bytes in little-endian order regardless
// of the byte order of the file it came from.
type Image struct {
	Width         int
	Height        int
	BitsPerSample int
	SampleFormat  SampleFormat
	Pixels        []byte
}

// BytesPerSample returns the byte size of one sample.
func (im *Image) BytesPerSample() int { return im.BitsPerSample / 8 }

// Validate checks structural consistency.
func (im *Image) Validate() error {
	switch im.BitsPerSample {
	case 8, 16, 32:
	default:
		return fmt.Errorf("tiff: unsupported bits per sample %d", im.BitsPerSample)
	}
	if im.SampleFormat == FormatFloat && im.BitsPerSample != 32 {
		return fmt.Errorf("tiff: float samples must be 32-bit, got %d", im.BitsPerSample)
	}
	if im.SampleFormat != FormatUint && im.SampleFormat != FormatFloat {
		return fmt.Errorf("tiff: unsupported sample format %v", im.SampleFormat)
	}
	if im.Width <= 0 || im.Height <= 0 {
		return fmt.Errorf("tiff: invalid dimensions %dx%d", im.Width, im.Height)
	}
	if want := im.Width * im.Height * im.BytesPerSample(); len(im.Pixels) != want {
		return fmt.Errorf("tiff: pixel buffer has %d bytes, want %d", len(im.Pixels), want)
	}
	return nil
}

// TIFF tag numbers used by this codec.
const (
	tagImageWidth    = 256
	tagImageLength   = 257
	tagBitsPerSample = 258
	tagCompression   = 259
	tagPhotometric   = 262
	tagStripOffsets  = 273
	tagRowsPerStrip  = 278
	tagStripCounts   = 279
	tagSampleFormat  = 339
)

// TIFF field types.
const (
	typeShort = 3
	typeLong  = 4
)

// Compression identifies the strip compression scheme (TIFF tag 259).
type Compression int

// Supported compression schemes.
const (
	CompressionNone     Compression = 1
	CompressionPackBits Compression = 32773
)

func (c Compression) String() string {
	switch c {
	case CompressionNone:
		return "none"
	case CompressionPackBits:
		return "packbits"
	}
	return fmt.Sprintf("Compression(%d)", int(c))
}

// EncodeOptions configures Encode's strip layout and compression.
type EncodeOptions struct {
	// Compression defaults to CompressionNone.
	Compression Compression
	// RowsPerStrip defaults to 64.
	RowsPerStrip int
}

// Encode writes img as a little-endian, strip-based, uncompressed TIFF.
// Strips hold up to 64 rows each, mirroring common scientific writers.
func Encode(w io.Writer, img *Image) error {
	return EncodeWithOptions(w, img, EncodeOptions{})
}

// EncodeWithOptions writes img with explicit strip and compression
// settings.
func EncodeWithOptions(w io.Writer, img *Image, opts EncodeOptions) error {
	if err := img.Validate(); err != nil {
		return err
	}
	if opts.Compression == 0 {
		opts.Compression = CompressionNone
	}
	if opts.Compression != CompressionNone && opts.Compression != CompressionPackBits {
		return fmt.Errorf("tiff: unsupported compression %v", opts.Compression)
	}
	rowsPerStrip := opts.RowsPerStrip
	if rowsPerStrip <= 0 {
		rowsPerStrip = 64
	}
	bps := img.BytesPerSample()
	rowBytes := img.Width * bps
	nStrips := (img.Height + rowsPerStrip - 1) / rowsPerStrip

	// Build strip payloads (compressing per row, as the spec requires).
	strips := make([][]byte, nStrips)
	for s := 0; s < nStrips; s++ {
		rows := rowsPerStrip
		if r := img.Height - s*rowsPerStrip; r < rows {
			rows = r
		}
		raw := img.Pixels[s*rowsPerStrip*rowBytes : (s*rowsPerStrip+rows)*rowBytes]
		if opts.Compression == CompressionNone {
			strips[s] = raw
			continue
		}
		var enc []byte
		for r := 0; r < rows; r++ {
			enc = packBitsEncodeRow(enc, raw[r*rowBytes:(r+1)*rowBytes])
		}
		strips[s] = enc
	}

	// Layout: 8-byte header, pixel strips, then the IFD and its overflow
	// arrays at the end of the file.
	entries := []struct {
		tag   uint16
		typ   uint16
		count uint32
		value uint32
	}{
		{tagImageWidth, typeLong, 1, uint32(img.Width)},
		{tagImageLength, typeLong, 1, uint32(img.Height)},
		{tagBitsPerSample, typeShort, 1, uint32(img.BitsPerSample)},
		{tagCompression, typeShort, 1, uint32(opts.Compression)},
		{tagPhotometric, typeShort, 1, 1}, // BlackIsZero
		{tagStripOffsets, typeLong, uint32(nStrips), 0},
		{tagRowsPerStrip, typeLong, 1, uint32(rowsPerStrip)},
		{tagStripCounts, typeLong, uint32(nStrips), 0},
		{tagSampleFormat, typeShort, 1, uint32(img.SampleFormat)},
	}

	dataStart := uint32(8)
	stripOffsets := make([]uint32, nStrips)
	stripCounts := make([]uint32, nStrips)
	off := dataStart
	for s := 0; s < nStrips; s++ {
		stripOffsets[s] = off
		stripCounts[s] = uint32(len(strips[s]))
		off += stripCounts[s]
	}
	ifdOffset := off
	// IFD: count + entries + next pointer; overflow arrays follow.
	overflow := ifdOffset + 2 + uint32(len(entries))*12 + 4
	var offsetsPos, countsPos uint32
	if nStrips > 1 {
		offsetsPos = overflow
		countsPos = overflow + uint32(nStrips)*4
	}
	for i := range entries {
		switch entries[i].tag {
		case tagStripOffsets:
			if nStrips == 1 {
				entries[i].value = stripOffsets[0]
			} else {
				entries[i].value = offsetsPos
			}
		case tagStripCounts:
			if nStrips == 1 {
				entries[i].value = stripCounts[0]
			} else {
				entries[i].value = countsPos
			}
		}
	}

	le := binary.LittleEndian
	hdr := make([]byte, 8)
	hdr[0], hdr[1] = 'I', 'I'
	le.PutUint16(hdr[2:], 42)
	le.PutUint32(hdr[4:], ifdOffset)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for _, strip := range strips {
		if _, err := w.Write(strip); err != nil {
			return err
		}
	}
	ifd := make([]byte, 2+len(entries)*12+4)
	le.PutUint16(ifd, uint16(len(entries)))
	for i, e := range entries {
		base := 2 + i*12
		le.PutUint16(ifd[base:], e.tag)
		le.PutUint16(ifd[base+2:], e.typ)
		le.PutUint32(ifd[base+4:], e.count)
		if e.typ == typeShort && e.count == 1 {
			le.PutUint16(ifd[base+8:], uint16(e.value))
		} else {
			le.PutUint32(ifd[base+8:], e.value)
		}
	}
	if _, err := w.Write(ifd); err != nil {
		return err
	}
	if nStrips > 1 {
		arrays := make([]byte, nStrips*8)
		for s := 0; s < nStrips; s++ {
			le.PutUint32(arrays[s*4:], stripOffsets[s])
			le.PutUint32(arrays[(nStrips+s)*4:], stripCounts[s])
		}
		if _, err := w.Write(arrays); err != nil {
			return err
		}
	}
	return nil
}

// Decode parses a TIFF produced by this package or any uncompressed
// single-plane grayscale writer, in either byte order. Multi-byte samples
// are normalized to little-endian.
func Decode(data []byte) (*Image, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("tiff: file too short")
	}
	var bo binary.ByteOrder
	switch {
	case data[0] == 'I' && data[1] == 'I':
		bo = binary.LittleEndian
	case data[0] == 'M' && data[1] == 'M':
		bo = binary.BigEndian
	default:
		return nil, fmt.Errorf("tiff: bad byte-order mark %q", data[:2])
	}
	if bo.Uint16(data[2:]) != 42 {
		return nil, fmt.Errorf("tiff: bad magic")
	}
	return decodeIFD(data, bo, bo.Uint32(data[4:]))
}

// decodeIFD parses the image file directory at ifdOff and its pixel data.
func decodeIFD(data []byte, bo binary.ByteOrder, ifdOff uint32) (*Image, error) {
	if int64(ifdOff)+2 > int64(len(data)) {
		return nil, fmt.Errorf("tiff: IFD offset out of range")
	}
	n := int(bo.Uint16(data[ifdOff:]))
	if int64(ifdOff)+2+int64(n)*12+4 > int64(len(data)) {
		return nil, fmt.Errorf("tiff: truncated IFD")
	}

	img := &Image{BitsPerSample: 8, SampleFormat: FormatUint}
	rowsPerStrip := int64(1) << 31
	var stripOffsets, stripCounts []uint32
	compression := 1

	readArray := func(typ uint16, count, value uint32, raw []byte) ([]uint32, error) {
		elemSize := 2
		if typ == typeLong {
			elemSize = 4
		} else if typ != typeShort {
			return nil, fmt.Errorf("tiff: unsupported field type %d", typ)
		}
		out := make([]uint32, count)
		total := int(count) * elemSize
		var src []byte
		if total <= 4 {
			src = raw // the inline value bytes
		} else {
			if int64(value)+int64(total) > int64(len(data)) {
				return nil, fmt.Errorf("tiff: array out of range")
			}
			src = data[value:]
		}
		for i := range out {
			if elemSize == 2 {
				out[i] = uint32(bo.Uint16(src[i*2:]))
			} else {
				out[i] = bo.Uint32(src[i*4:])
			}
		}
		return out, nil
	}

	for i := 0; i < n; i++ {
		base := ifdOff + 2 + uint32(i)*12
		tag := bo.Uint16(data[base:])
		typ := bo.Uint16(data[base+2:])
		count := bo.Uint32(data[base+4:])
		rawValue := data[base+8 : base+12]
		value := bo.Uint32(rawValue)
		scalar := func() uint32 {
			if typ == typeShort {
				return uint32(bo.Uint16(rawValue))
			}
			return value
		}
		switch tag {
		case tagImageWidth:
			img.Width = int(scalar())
		case tagImageLength:
			img.Height = int(scalar())
		case tagBitsPerSample:
			if count != 1 {
				return nil, fmt.Errorf("tiff: %d samples per pixel unsupported", count)
			}
			img.BitsPerSample = int(scalar())
		case tagCompression:
			compression = int(scalar())
		case tagSampleFormat:
			img.SampleFormat = SampleFormat(scalar())
		case tagRowsPerStrip:
			rowsPerStrip = int64(scalar())
		case tagStripOffsets:
			var err error
			if stripOffsets, err = readArray(typ, count, value, rawValue); err != nil {
				return nil, err
			}
		case tagStripCounts:
			var err error
			if stripCounts, err = readArray(typ, count, value, rawValue); err != nil {
				return nil, err
			}
		}
	}
	if Compression(compression) != CompressionNone && Compression(compression) != CompressionPackBits {
		return nil, fmt.Errorf("tiff: compression %d unsupported", compression)
	}
	if len(stripOffsets) == 0 || len(stripOffsets) != len(stripCounts) {
		return nil, fmt.Errorf("tiff: inconsistent strip tables (%d offsets, %d counts)",
			len(stripOffsets), len(stripCounts))
	}
	bps := img.BitsPerSample / 8
	if bps == 0 {
		return nil, fmt.Errorf("tiff: unsupported bits per sample %d", img.BitsPerSample)
	}
	if img.Width <= 0 || img.Height <= 0 {
		return nil, fmt.Errorf("tiff: invalid dimensions %dx%d", img.Width, img.Height)
	}
	img.Pixels = make([]byte, img.Width*img.Height*bps)
	rowBytes := img.Width * bps
	if rowsPerStrip <= 0 {
		return nil, fmt.Errorf("tiff: invalid rows per strip %d", rowsPerStrip)
	}
	written := 0
	for s := range stripOffsets {
		off, cnt := int64(stripOffsets[s]), int64(stripCounts[s])
		if off+cnt > int64(len(data)) {
			return nil, fmt.Errorf("tiff: strip %d out of range", s)
		}
		rowsLeft := int64(img.Height) - int64(s)*rowsPerStrip
		if rowsLeft <= 0 {
			return nil, fmt.Errorf("tiff: strip %d beyond image height", s)
		}
		if rowsLeft > rowsPerStrip {
			rowsLeft = rowsPerStrip
		}
		expect := int(rowsLeft) * rowBytes
		if written+expect > len(img.Pixels) {
			return nil, fmt.Errorf("tiff: strips exceed image size")
		}
		src := data[off : off+cnt]
		if Compression(compression) == CompressionPackBits {
			if err := packBitsDecode(img.Pixels[written:written+expect], src); err != nil {
				return nil, fmt.Errorf("tiff: strip %d: %w", s, err)
			}
		} else {
			if int(cnt) != expect {
				return nil, fmt.Errorf("tiff: strip %d holds %d bytes, want %d", s, cnt, expect)
			}
			copy(img.Pixels[written:], src)
		}
		written += expect
	}
	if written != len(img.Pixels) {
		return nil, fmt.Errorf("tiff: strips cover %d of %d pixel bytes", written, len(img.Pixels))
	}
	// Normalize sample byte order.
	if bo == binary.BigEndian && bps > 1 {
		for i := 0; i < len(img.Pixels); i += bps {
			for a, b := i, i+bps-1; a < b; a, b = a+1, b-1 {
				img.Pixels[a], img.Pixels[b] = img.Pixels[b], img.Pixels[a]
			}
		}
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	return img, nil
}

// WriteFile encodes img to path.
func WriteFile(path string, img *Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Encode(f, img); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads and decodes the TIFF at path. Like all common TIFF
// readers it must ingest the whole file even when the caller wants only a
// few pixels — the cost DDR's load balancing amortizes.
func ReadFile(path string) (*Image, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	img, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return img, nil
}
