// Package perfmodel is a calibrated analytic performance model of the
// machine the paper evaluated on (Argonne's Cooley visualization cluster:
// 126 nodes, FDR InfiniBand with one 56 Gbps link per node, GPFS shared
// storage). The experiments in this repository run the real DDR algorithm
// at laptop scale; this model projects the paper-scale timings of Table II
// and Figure 3 from the *exact* communication schedules the library
// computes (rounds and bytes per rank per round — the quantities of
// Table III, which need no model at all).
//
// The model has two parts:
//
//   - File ingest: reading + decoding one TIFF costs an open latency plus
//     bytes over a per-process effective filesystem bandwidth that
//     degrades mildly as more processes hammer the shared filesystem.
//
//   - Alltoallw rounds: each call costs a latency that grows with the
//     number of ranks (collective software overhead) plus the per-rank
//     payload over an effective bandwidth that saturates as per-rank
//     volume grows (incast/link contention — the effect the paper uses to
//     explain why consecutive single-round exchanges underperform at
//     small scale while many small round-robin rounds pay per-call
//     overhead at large scale).
//
// Constants were calibrated once against the twelve (technique, scale)
// measurements of the paper's Table II; EXPERIMENTS.md records the fit.
package perfmodel

import (
	"fmt"
	"math"
)

// Machine holds the model parameters. All rates are bytes/second and all
// latencies seconds.
type Machine struct {
	Name string

	// File ingest.
	FileOpenLatency   float64 // per-file open+stat cost
	FSProcBandwidth   float64 // per-process read+decode bandwidth, uncontended
	FSContentionProcs float64 // process count at which bandwidth is halved... doubled degradation scale

	// Alltoallw.
	A2ALatencyBase    float64 // fixed software cost per collective call
	A2ALatencyPerRank float64 // additional cost per participating rank
	A2ABandwidthMax   float64 // per-rank effective bandwidth at small volume
	A2AVolumeHalf     float64 // per-rank volume at which bandwidth halves
}

// Cooley returns the model calibrated against the paper's Table II.
func Cooley() Machine {
	return Machine{
		Name:              "cooley",
		FileOpenLatency:   5e-3,
		FSProcBandwidth:   168e6,
		FSContentionProcs: 900,
		A2ALatencyBase:    2e-3,
		A2ALatencyPerRank: 7e-4,
		A2ABandwidthMax:   620e6,
		A2AVolumeHalf:     1.5e9,
	}
}

// Validate reports whether all parameters are physical.
func (m Machine) Validate() error {
	for name, v := range map[string]float64{
		"FileOpenLatency":   m.FileOpenLatency,
		"FSProcBandwidth":   m.FSProcBandwidth,
		"FSContentionProcs": m.FSContentionProcs,
		"A2ALatencyBase":    m.A2ALatencyBase,
		"A2ALatencyPerRank": m.A2ALatencyPerRank,
		"A2ABandwidthMax":   m.A2ABandwidthMax,
		"A2AVolumeHalf":     m.A2AVolumeHalf,
	} {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("perfmodel: %s = %g must be positive and finite", name, v)
		}
	}
	return nil
}

// PerImageTime returns the modelled seconds to open, read, and decode one
// image of imageBytes when p processes are loading concurrently.
func (m Machine) PerImageTime(p int, imageBytes int64) float64 {
	eff := m.FSProcBandwidth / (1 + float64(p)/m.FSContentionProcs)
	return m.FileOpenLatency + float64(imageBytes)/eff
}

// AlltoallwTime returns the modelled seconds for one alltoallw round in
// which each of p ranks sends and receives bytesPerRank.
func (m Machine) AlltoallwTime(p int, bytesPerRank float64) float64 {
	if bytesPerRank <= 0 {
		return m.A2ALatencyBase + m.A2ALatencyPerRank*float64(p)
	}
	bw := m.A2ABandwidthMax / (1 + bytesPerRank/m.A2AVolumeHalf)
	return m.A2ALatencyBase + m.A2ALatencyPerRank*float64(p) + bytesPerRank/bw
}

// TIFFWorkload describes a slice-stack loading experiment.
type TIFFWorkload struct {
	NumImages  int
	ImageBytes int64
}

// LoadNoDDR models the baseline: the volume is split into near-cube bricks
// over p processes (nz slabs deep), and every process reads and decodes
// every image its brick intersects — numImages/nz of them, with whole
// images decoded regardless of how few pixels are needed (the cost the
// paper's §IV-A describes).
func (m Machine) LoadNoDDR(w TIFFWorkload, p, nz int) float64 {
	imagesPerProc := math.Ceil(float64(w.NumImages) / float64(nz))
	return imagesPerProc * m.PerImageTime(p, w.ImageBytes)
}

// LoadDDR models a DDR-assisted load: each process reads numImages/p
// images once, then the redistribution runs `rounds` alltoallw calls
// moving bytesPerRankRound per rank per round (taken from the exact plan
// statistics, core.Plan.Stats).
func (m Machine) LoadDDR(w TIFFWorkload, p, rounds int, bytesPerRankRound float64) float64 {
	imagesPerProc := math.Ceil(float64(w.NumImages) / float64(p))
	read := imagesPerProc * m.PerImageTime(p, w.ImageBytes)
	comm := 0.0
	for r := 0; r < rounds; r++ {
		comm += m.AlltoallwTime(p, bytesPerRankRound)
	}
	return read + comm
}
