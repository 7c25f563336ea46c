package colormap

import (
	"bytes"
	"image"
	"image/gif"
	"testing"
)

func TestEncodeAnimation(t *testing.T) {
	frames := make([]*image.RGBA, 3)
	for i := range frames {
		vals := make([]float32, 16*8)
		for j := range vals {
			vals[j] = float32(i) / 2
		}
		img, err := FieldToImage(vals, 16, 8, 0, 1, BlueWhiteRed)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = img
	}
	var buf bytes.Buffer
	if err := EncodeAnimation(&buf, frames, 10); err != nil {
		t.Fatal(err)
	}
	decoded, err := gif.DecodeAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.Image) != 3 {
		t.Errorf("decoded %d frames", len(decoded.Image))
	}
	if decoded.Delay[0] != 10 {
		t.Errorf("delay %d", decoded.Delay[0])
	}
	// Validation paths.
	if err := EncodeAnimation(&buf, nil, 10); err == nil {
		t.Error("empty animation accepted")
	}
	small := image.NewRGBA(image.Rect(0, 0, 2, 2))
	if err := EncodeAnimation(&buf, []*image.RGBA{frames[0], small}, 10); err == nil {
		t.Error("mismatched frame sizes accepted")
	}
	// Zero delay is clamped, not rejected.
	if err := EncodeAnimation(&buf, frames[:1], 0); err != nil {
		t.Errorf("zero delay: %v", err)
	}
}

func TestColorbar(t *testing.T) {
	bar, err := Colorbar(BlueWhiteRed, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	top := bar.RGBAAt(0, 0)
	bottom := bar.RGBAAt(0, 9)
	if top.R != 255 || top.G != 0 { // t=1 is red
		t.Errorf("top = %v, want red", top)
	}
	if bottom.B != 255 || bottom.R != 0 { // t=0 is blue
		t.Errorf("bottom = %v, want blue", bottom)
	}
	if _, err := Colorbar(Heat, 0, 10); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := Colorbar(Heat, 4, 1); err == nil {
		t.Error("1-pixel height accepted")
	}
}

func TestWithLegend(t *testing.T) {
	base := image.NewRGBA(image.Rect(0, 0, 96, 48))
	out, err := WithLegend(base, BlueWhiteRed)
	if err != nil {
		t.Fatal(err)
	}
	if out.Bounds().Dx() <= 96 || out.Bounds().Dy() != 48 {
		t.Fatalf("bounds %v", out.Bounds())
	}
	// The legend column must contain a red pixel near its top and a blue
	// one near its bottom.
	barX := out.Bounds().Dx() - 10
	foundRed, foundBlue := false, false
	for y := 0; y < 48; y++ {
		c := out.RGBAAt(barX, y)
		if c.R == 255 && c.G == 0 && c.B == 0 {
			foundRed = true
		}
		if c.B == 255 && c.R == 0 && c.G == 0 {
			foundBlue = true
		}
	}
	if !foundRed || !foundBlue {
		t.Errorf("legend missing endpoints (red=%v blue=%v)", foundRed, foundBlue)
	}
}
