package colormap

import (
	"bytes"
	"image/jpeg"
	"image/png"
	"math"
	"math/rand"
	"testing"
)

func TestBlueWhiteRedEndpoints(t *testing.T) {
	r, g, b := BlueWhiteRed(0)
	if r != 0 || g != 0 || b != 255 {
		t.Errorf("t=0: (%d,%d,%d), want blue", r, g, b)
	}
	r, g, b = BlueWhiteRed(0.5)
	if r != 255 || g != 255 || b != 255 {
		t.Errorf("t=0.5: (%d,%d,%d), want white", r, g, b)
	}
	r, g, b = BlueWhiteRed(1)
	if r != 255 || g != 0 || b != 0 {
		t.Errorf("t=1: (%d,%d,%d), want red", r, g, b)
	}
	// Clamping.
	r, g, b = BlueWhiteRed(-3)
	if b != 255 || r != 0 {
		t.Errorf("t=-3 not clamped: (%d,%d,%d)", r, g, b)
	}
	r, _, _ = BlueWhiteRed(7)
	if r != 255 {
		t.Errorf("t=7 not clamped: r=%d", r)
	}
	if r, g, b := BlueWhiteRed(math.NaN()); r != 0 || g != 0 || b != 255 {
		t.Errorf("NaN not clamped to 0: (%d,%d,%d)", r, g, b)
	}
}

func TestHeatRamp(t *testing.T) {
	r0, g0, b0 := Heat(0)
	if r0 != 0 || g0 != 0 || b0 != 0 {
		t.Errorf("heat(0) = (%d,%d,%d)", r0, g0, b0)
	}
	r1, g1, b1 := Heat(1)
	if r1 != 255 || g1 != 255 || b1 != 255 {
		t.Errorf("heat(1) = (%d,%d,%d)", r1, g1, b1)
	}
	rm, gm, bm := Heat(0.4)
	if rm != 255 || gm == 0 && bm != 0 {
		t.Errorf("heat(0.4) = (%d,%d,%d)", rm, gm, bm)
	}
}

func TestSymmetricRange(t *testing.T) {
	lo, hi := SymmetricRange([]float32{-0.25, 0.5, 0.1})
	if lo != -0.5 || hi != 0.5 {
		t.Errorf("range = [%g,%g]", lo, hi)
	}
	lo, hi = SymmetricRange(nil)
	if lo != -1 || hi != 1 {
		t.Errorf("empty range = [%g,%g]", lo, hi)
	}
	lo, hi = SymmetricRange([]float32{float32(math.NaN()), 2})
	if lo != -2 || hi != 2 {
		t.Errorf("NaN range = [%g,%g]", lo, hi)
	}
}

func TestFieldToImage(t *testing.T) {
	vals := []float32{-1, 0, 0, 1, -1, 1}
	img, err := FieldToImage(vals, 2, 3, -1, 1, BlueWhiteRed)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 2 || img.Bounds().Dy() != 3 {
		t.Fatalf("bounds %v", img.Bounds())
	}
	c := img.RGBAAt(0, 0)
	if c.B != 255 || c.R != 0 {
		t.Errorf("(0,0) = %v, want blue", c)
	}
	c = img.RGBAAt(1, 1)
	if c.R != 255 || c.G != 0 {
		t.Errorf("(1,1) = %v, want red", c)
	}
	if _, err := FieldToImage(vals, 3, 3, -1, 1, BlueWhiteRed); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := FieldToImage(vals, 2, 3, 1, 1, BlueWhiteRed); err == nil {
		t.Error("empty range accepted")
	}
}

func TestEncodeJPEGAndPNG(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]float32, 64*48)
	for i := range vals {
		vals[i] = rng.Float32()*2 - 1
	}
	img, err := FieldToImage(vals, 64, 48, -1, 1, BlueWhiteRed)
	if err != nil {
		t.Fatal(err)
	}
	var jbuf, pbuf bytes.Buffer
	if err := EncodeJPEG(&jbuf, img, 80); err != nil {
		t.Fatal(err)
	}
	if err := EncodePNG(&pbuf, img); err != nil {
		t.Fatal(err)
	}
	if _, err := jpeg.Decode(bytes.NewReader(jbuf.Bytes())); err != nil {
		t.Errorf("jpeg not decodable: %v", err)
	}
	if _, err := png.Decode(bytes.NewReader(pbuf.Bytes())); err != nil {
		t.Errorf("png not decodable: %v", err)
	}
	// A smooth field must compress far better than 4 bytes/pixel raw.
	smooth := make([]float32, 64*48)
	for y := 0; y < 48; y++ {
		for x := 0; x < 64; x++ {
			smooth[y*64+x] = float32(math.Sin(float64(x)/10) * math.Cos(float64(y)/10))
		}
	}
	simg, err := FieldToImage(smooth, 64, 48, -1, 1, BlueWhiteRed)
	if err != nil {
		t.Fatal(err)
	}
	var sbuf bytes.Buffer
	if err := EncodeJPEG(&sbuf, simg, 80); err != nil {
		t.Fatal(err)
	}
	raw := 64 * 48 * 4
	if sbuf.Len() >= raw {
		t.Errorf("smooth JPEG %d bytes not smaller than raw %d", sbuf.Len(), raw)
	}
}
