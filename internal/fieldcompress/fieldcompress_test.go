package fieldcompress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTripErrorBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2000)
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = (rng.Float32() - 0.5) * 100
		}
		maxErr := []float64{1e-4, 1e-2, 0.5}[rng.Intn(3)]
		buf, err := Compress(vals, maxErr)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		got, err := Decompress(buf)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(got) != n {
			return false
		}
		for i := range vals {
			// Allow the documented bound: maxErr plus one float32 ulp of
			// the value for the final float32 rounding.
			ulp := math.Abs(float64(vals[i])) * math.Pow(2, -23)
			if math.Abs(float64(got[i])-float64(vals[i])) > maxErr+ulp {
				t.Logf("seed %d: value %d error %g exceeds %g", seed, i,
					math.Abs(float64(got[i])-float64(vals[i])), maxErr+ulp)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSmoothFieldCompressesWell(t *testing.T) {
	// A smooth vorticity-like field must compress far below 4 B/value.
	const w, h = 200, 100
	vals := make([]float32, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			vals[y*w+x] = float32(0.05 * math.Sin(float64(x)/15) * math.Cos(float64(y)/11))
		}
	}
	buf, err := Compress(vals, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if r := float64(4*len(vals)) / float64(len(buf)); r < 3 {
		t.Errorf("smooth field ratio %.1fx, expected > 3x", r)
	}
	// A mostly-zero field (quiet flow regions) must collapse dramatically.
	zeros := make([]float32, w*h)
	for i := 0; i < 50; i++ {
		zeros[i*37] = 0.25
	}
	buf, err = Compress(zeros, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if r := float64(4*len(zeros)) / float64(len(buf)); r < 50 {
		t.Errorf("sparse field ratio %.1fx, expected > 50x", r)
	}
}

func TestCompressValidation(t *testing.T) {
	if _, err := Compress([]float32{1}, 0); err == nil {
		t.Error("zero error bound accepted")
	}
	if _, err := Compress([]float32{1}, math.Inf(1)); err == nil {
		t.Error("infinite error bound accepted")
	}
	if _, err := Compress([]float32{float32(math.NaN())}, 0.1); err == nil {
		t.Error("NaN value accepted")
	}
	if _, err := Compress([]float32{math.MaxFloat32}, 1e-30); err == nil {
		t.Error("quantizer overflow accepted")
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{magic},
		{0x00, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, // wrong magic
	}
	for i, c := range cases {
		if _, err := Decompress(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Truncated valid stream.
	good, err := Compress([]float32{1, 2, 3, 4, 5}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(good[:len(good)-1]); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, err := Decompress(append(good, 9)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestEmptyField(t *testing.T) {
	buf, err := Compress(nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %d values", len(got))
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40)} {
		if unzigzag(zigzag(v)) != v {
			t.Errorf("zigzag roundtrip failed for %d", v)
		}
	}
}

func BenchmarkCompressSmooth(b *testing.B) {
	const n = 1 << 16
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i) / 500))
	}
	b.SetBytes(4 * n)
	for i := 0; i < b.N; i++ {
		if _, err := Compress(vals, 1e-4); err != nil {
			b.Fatal(err)
		}
	}
}
