// Package colormap converts scalar fields into raster images: the
// blue-white-red diverging map the paper uses for vorticity, a heat ramp
// for CT data, and JPEG/PNG encoding of the result. JPEG output is
// what gives the paper's Table IV its ~99.5% data reduction.
package colormap

import (
	"fmt"
	"image"
	"image/color"
	"image/jpeg"
	"image/png"
	"io"
	"math"
)

// Map converts a normalized value t in [0,1] to an RGB color. Values
// outside [0,1] are clamped.
type Map func(t float64) (r, g, b uint8)

func clamp01(t float64) float64 {
	switch {
	case math.IsNaN(t), t < 0:
		return 0
	case t > 1:
		return 1
	}
	return t
}

// BlueWhiteRed is the diverging map from the paper's LBM visualization:
// blue at 0, white at 0.5, red at 1.
func BlueWhiteRed(t float64) (uint8, uint8, uint8) {
	t = clamp01(t)
	if t < 0.5 {
		s := t * 2
		return uint8(255 * s), uint8(255 * s), 255
	}
	s := (t - 0.5) * 2
	return 255, uint8(255 * (1 - s)), uint8(255 * (1 - s))
}

// Heat is a simple black-red-yellow-white ramp used for CT renderings.
func Heat(t float64) (uint8, uint8, uint8) {
	t = clamp01(t)
	r := clamp01(t * 3)
	g := clamp01(t*3 - 1)
	b := clamp01(t*3 - 2)
	return uint8(255 * r), uint8(255 * g), uint8(255 * b)
}

// SymmetricRange returns (-m, +m) where m is the largest absolute value in
// vals — the natural normalization for a signed field such as vorticity
// under a diverging map. A zero field yields (-1, 1).
func SymmetricRange(vals []float32) (lo, hi float64) {
	var m float64
	for _, v := range vals {
		if a := math.Abs(float64(v)); a > m && !math.IsNaN(a) && !math.IsInf(a, 0) {
			m = a
		}
	}
	if m == 0 {
		m = 1
	}
	return -m, m
}

// FieldToImage renders a w×h row-major scalar field to an RGBA image,
// normalizing [lo,hi] to [0,1] through m.
func FieldToImage(vals []float32, w, h int, lo, hi float64, m Map) (*image.RGBA, error) {
	if len(vals) != w*h {
		return nil, fmt.Errorf("colormap: field has %d values for %dx%d", len(vals), w, h)
	}
	if hi <= lo {
		return nil, fmt.Errorf("colormap: empty range [%g,%g]", lo, hi)
	}
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	scale := 1 / (hi - lo)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r, g, b := m((float64(vals[y*w+x]) - lo) * scale)
			img.SetRGBA(x, y, color.RGBA{R: r, G: g, B: b, A: 255})
		}
	}
	return img, nil
}

// EncodeJPEG writes img as a JPEG at the given quality (1-100; the paper's
// analysis application uses standard compressed JPEG output).
func EncodeJPEG(w io.Writer, img image.Image, quality int) error {
	return jpeg.Encode(w, img, &jpeg.Options{Quality: quality})
}

// EncodePNG writes img as a PNG (used where lossless output is wanted).
func EncodePNG(w io.Writer, img image.Image) error {
	return png.Encode(w, img)
}
