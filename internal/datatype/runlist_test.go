package datatype

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"ddr/internal/grid"
)

// randomSubarray builds a valid random Subarray within a small 3D array.
func randomSubarray(rng *rand.Rand) *Subarray {
	dims := [3]int{1 + rng.Intn(12), 1 + rng.Intn(10), 1 + rng.Intn(8)}
	array := grid.Box{NDims: 3, Dims: [grid.MaxDims]int{dims[0], dims[1], dims[2]}}
	var sub grid.Box
	sub.NDims = 3
	for d := 0; d < 3; d++ {
		sub.Offset[d] = rng.Intn(dims[d])
		sub.Dims[d] = 1 + rng.Intn(dims[d]-sub.Offset[d])
	}
	elem := []int{1, 2, 4, 8}[rng.Intn(4)]
	s, err := NewSubarray(elem, array, sub)
	if err != nil {
		panic(err)
	}
	return s
}

// TestRunListMatchesSubarray proves a compiled run list is byte-for-byte
// interchangeable with the Subarray it came from: same packed size, same
// wire bytes from Pack, same scattered bytes from Unpack, same
// contiguity span.
func TestRunListMatchesSubarray(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		s := randomSubarray(rng)
		rl, ok := CompileRuns(s)
		if !ok {
			t.Fatalf("trial %d: compile declined for %v", trial, s)
		}
		if rl.PackedSize() != s.PackedSize() {
			t.Fatalf("trial %d: packed size %d != %d", trial, rl.PackedSize(), s.PackedSize())
		}
		so, sn, sok := s.ContiguousSpan()
		ro, rn, rok := rl.ContiguousSpan()
		if so != ro || sn != rn || sok != rok {
			t.Fatalf("trial %d: span (%d,%d,%v) != (%d,%d,%v)", trial, ro, rn, rok, so, sn, sok)
		}

		localBytes := s.Array.Volume() * s.ElemSize
		local := make([]byte, localBytes)
		rng.Read(local)
		wantWire := make([]byte, s.PackedSize())
		gotWire := make([]byte, s.PackedSize())
		if n, m := s.Pack(local, wantWire), rl.Pack(local, gotWire); n != m {
			t.Fatalf("trial %d: pack wrote %d vs %d", trial, m, n)
		}
		if !bytes.Equal(wantWire, gotWire) {
			t.Fatalf("trial %d: packed bytes differ for %v", trial, s)
		}

		wantLocal := make([]byte, localBytes)
		gotLocal := make([]byte, localBytes)
		if n, m := s.Unpack(wantWire, wantLocal), rl.Unpack(gotWire, gotLocal); n != m {
			t.Fatalf("trial %d: unpack read %d vs %d", trial, m, n)
		}
		if !bytes.Equal(wantLocal, gotLocal) {
			t.Fatalf("trial %d: unpacked bytes differ for %v", trial, s)
		}
	}
}

// TestAppendRunsMatchesPack: for every Type, the runs AppendRuns lists,
// concatenated, are exactly Pack's wire bytes — what a vectored write of
// the runs puts on the wire — and each run aliases local.
func TestAppendRunsMatchesPack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(name string, ty Type, local []byte) {
		t.Helper()
		want := make([]byte, ty.PackedSize())
		ty.Pack(local, want)
		lo := uintptr(unsafe.Pointer(&local[0]))
		var got []byte
		for _, run := range ty.AppendRuns(nil, local) {
			at := uintptr(unsafe.Pointer(unsafe.SliceData(run)))
			if len(run) == 0 || at < lo || at+uintptr(len(run)) > lo+uintptr(len(local)) {
				t.Fatalf("%s: run of %d bytes does not alias local", name, len(run))
			}
			got = append(got, run...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: runs carry %d bytes, pack %d, or they differ", name, len(got), len(want))
		}
	}
	for trial := 0; trial < 200; trial++ {
		s := randomSubarray(rng)
		local := make([]byte, s.Array.Volume()*s.ElemSize)
		rng.Read(local)
		check(s.String(), s, local)
		rl, _ := CompileRuns(s)
		check(rl.String(), rl, local)
	}
	local := make([]byte, 64)
	rng.Read(local)
	check("contiguous", Contiguous{Bytes: 40}, local)
	if runs := (Empty{}).AppendRuns(nil, local); len(runs) != 0 {
		t.Fatalf("Empty lists %d runs", len(runs))
	}
}

// TestCompileRunsDeclines covers the inputs compilation must refuse:
// non-Subarray types and empty regions.
func TestCompileRunsDeclines(t *testing.T) {
	if _, ok := CompileRuns(Contiguous{Bytes: 64}); ok {
		t.Error("compiled a Contiguous type")
	}
	if _, ok := CompileRuns(Empty{}); ok {
		t.Error("compiled the Empty type")
	}
	array := grid.Box{NDims: 2, Dims: [grid.MaxDims]int{8, 8}}
	empty := grid.Box{NDims: 2, Offset: [grid.MaxDims]int{2, 2}}
	s, err := NewSubarray(4, array, empty)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := CompileRuns(s); ok {
		t.Error("compiled an empty sub-region")
	}
}
