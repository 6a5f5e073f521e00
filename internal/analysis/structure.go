package analysis

import (
	"fmt"
	"math"

	"anton/internal/vec"
)

// RDF computes the radial distribution function g(r) between two atom
// selections over a set of frames. g(r) ~ 1 at long range for a liquid;
// the O-O RDF of water shows its characteristic first peak near 2.8 Å —
// the standard structural check that a water model behaves like a liquid.
func RDF(frames [][]vec.V3, box vec.Box, selA, selB []int, rMax float64, bins int) (r []float64, g []float64, err error) {
	if len(frames) == 0 || len(selA) == 0 || len(selB) == 0 {
		return nil, nil, fmt.Errorf("analysis: empty RDF input")
	}
	if bins < 2 || rMax <= 0 {
		return nil, nil, fmt.Errorf("analysis: invalid RDF bins/range")
	}
	if rMax > box.L.MaxAbs()/2 {
		rMax = box.L.MaxAbs() / 2
	}
	dr := rMax / float64(bins)
	counts := make([]float64, bins)
	same := sameSelection(selA, selB)
	pairsPerFrame := float64(len(selA)) * float64(len(selB))
	if same {
		pairsPerFrame = float64(len(selA)) * float64(len(selA)-1)
	}

	for _, frame := range frames {
		for _, i := range selA {
			for _, j := range selB {
				if i == j {
					continue
				}
				d := box.Dist(frame[i], frame[j])
				if d >= rMax {
					continue
				}
				counts[int(d/dr)]++
			}
		}
	}

	// Normalize: ideal-gas pair count in each shell.
	rho := pairsPerFrame / box.Volume() // pair density
	nFrames := float64(len(frames))
	r = make([]float64, bins)
	g = make([]float64, bins)
	for b := 0; b < bins; b++ {
		rLo := float64(b) * dr
		rHi := rLo + dr
		shell := 4.0 / 3.0 * math.Pi * (rHi*rHi*rHi - rLo*rLo*rLo)
		ideal := rho * shell * nFrames
		r[b] = rLo + dr/2
		if ideal > 0 {
			g[b] = counts[b] / ideal
		}
	}
	return r, g, nil
}

func sameSelection(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FirstPeak returns the location and height of the first maximum of g(r)
// above the given threshold.
func FirstPeak(r, g []float64, threshold float64) (pos, height float64, ok bool) {
	for i := 1; i < len(g)-1; i++ {
		if g[i] > threshold && g[i] >= g[i-1] && g[i] >= g[i+1] {
			return r[i], g[i], true
		}
	}
	return 0, 0, false
}
