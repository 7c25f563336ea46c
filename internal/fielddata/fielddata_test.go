package fielddata

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFloat32RoundTrip(t *testing.T) {
	in := []float32{0, 1.5, -2.25, float32(math.Inf(1)), math.MaxFloat32}
	got := BytesFloat32(Float32Bytes(in))
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("[%d] = %g, want %g", i, got[i], in[i])
		}
	}
	// NaN survives by bit pattern.
	nan := BytesFloat32(Float32Bytes([]float32{float32(math.NaN())}))
	if !math.IsNaN(float64(nan[0])) {
		t.Error("NaN lost")
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	f := func(vals []float64) bool {
		got := BytesFloat64(Float64Bytes(vals))
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] && !(math.IsNaN(got[i]) && math.IsNaN(vals[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCopiesNotViews(t *testing.T) {
	in := []float32{1, 2}
	b := Float32Bytes(in)
	in[0] = 99
	if BytesFloat32(b)[0] != 1 {
		t.Error("Float32Bytes aliases its input")
	}
}

func TestTrailingBytesIgnored(t *testing.T) {
	if got := BytesFloat32([]byte{0, 0, 0, 0, 7}); len(got) != 1 {
		t.Errorf("len = %d", len(got))
	}
	if got := BytesFloat64(make([]byte, 15)); len(got) != 1 {
		t.Errorf("len = %d", len(got))
	}
}
