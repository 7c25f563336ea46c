package perfmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCooleyValid(t *testing.T) {
	if err := Cooley().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	m := Cooley()
	m.A2ABandwidthMax = 0
	if err := m.Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
	m = Cooley()
	m.FSProcBandwidth = math.NaN()
	if err := m.Validate(); err == nil {
		t.Error("NaN bandwidth accepted")
	}
}

func TestPerImageTimeMonotoneInProcs(t *testing.T) {
	m := Cooley()
	const img = 32 << 20
	prev := 0.0
	for _, p := range []int{1, 27, 64, 125, 216} {
		v := m.PerImageTime(p, img)
		if v <= prev {
			t.Errorf("per-image time not increasing with contention at p=%d", p)
		}
		prev = v
	}
}

func TestAlltoallwTimeProperties(t *testing.T) {
	m := Cooley()
	// Zero payload still costs the call latency.
	if got := m.AlltoallwTime(64, 0); got <= 0 {
		t.Errorf("zero-payload time %f", got)
	}
	// More data can never be faster.
	f := func(a, b uint32) bool {
		va, vb := float64(a), float64(b)
		if va > vb {
			va, vb = vb, va
		}
		return m.AlltoallwTime(27, va) <= m.AlltoallwTime(27, vb)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Effective bandwidth degrades with volume: time for 2V exceeds twice
	// the transfer-only time of V is not required, but the per-byte cost
	// must grow.
	v1, v2 := 32.0e6, 4.0e9
	perByte1 := (m.AlltoallwTime(27, v1) - m.AlltoallwTime(27, 0)) / v1
	perByte2 := (m.AlltoallwTime(27, v2) - m.AlltoallwTime(27, 0)) / v2
	if perByte2 <= perByte1 {
		t.Errorf("no contention penalty: %g vs %g s/B", perByte1, perByte2)
	}
	// Latency grows with rank count.
	if m.AlltoallwTime(216, 0) <= m.AlltoallwTime(27, 0) {
		t.Error("call latency does not grow with ranks")
	}
}

func TestLoadNoDDRVsDDR(t *testing.T) {
	m := Cooley()
	w := TIFFWorkload{NumImages: 4096, ImageBytes: 4096 * 2048 * 4}
	// The headline claim: at 216 processes DDR must beat the baseline by
	// an order of magnitude.
	noDDR := m.LoadNoDDR(w, 216, 6)
	ddr := m.LoadDDR(w, 216, 1, 589.95*(1<<20))
	if noDDR/ddr < 10 {
		t.Errorf("speedup %0.1fx, expected >10x", noDDR/ddr)
	}
	// DDR load time must strong-scale (decrease with more processes).
	prev := math.Inf(1)
	for _, pc := range []struct{ p, nz, rounds int }{
		{27, 3, 1}, {64, 4, 1}, {125, 5, 1}, {216, 6, 1},
	} {
		bytesPer := float64(w.NumImages) * float64(w.ImageBytes) / float64(pc.p) * 0.9
		v := m.LoadDDR(w, pc.p, pc.rounds, bytesPer)
		if v >= prev {
			t.Errorf("DDR time not strong-scaling at p=%d: %f >= %f", pc.p, v, prev)
		}
		prev = v
	}
}
