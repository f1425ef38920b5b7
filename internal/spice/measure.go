package spice

import (
	"fmt"
	"math"
)

// CrossTime returns the first time after tAfter at which the waveform
// crosses level in the given direction, using linear interpolation
// between samples. It returns an error when no crossing exists.
func (r *Result) CrossTime(node string, level float64, rising bool, tAfter float64) (float64, error) {
	w := r.wave(node)
	if w == nil {
		return 0, fmt.Errorf("spice: no waveform for node %q", node)
	}
	for i := 1; i < len(w); i++ {
		if r.Times[i] < tAfter {
			continue
		}
		a, b := w[i-1], w[i]
		var hit bool
		if rising {
			hit = a < level && b >= level
		} else {
			hit = a > level && b <= level
		}
		if hit {
			frac := (level - a) / (b - a)
			return r.Times[i-1] + frac*(r.Times[i]-r.Times[i-1]), nil
		}
	}
	return 0, fmt.Errorf("spice: node %q never crosses %.3f (%s) after %g",
		node, level, dir(rising), tAfter)
}

func dir(rising bool) string {
	if rising {
		return "rising"
	}
	return "falling"
}

// PropDelay measures 50%-to-50% propagation delay from the input edge
// at tEdge on node in to the first subsequent 50% crossing (either
// direction) on node out.
func (r *Result) PropDelay(in, out string, vdd, tEdge float64) (float64, error) {
	half := vdd / 2
	tIn, err := r.CrossTime(in, half, true, tEdge-1e-15)
	if err != nil {
		tIn, err = r.CrossTime(in, half, false, tEdge-1e-15)
		if err != nil {
			return 0, fmt.Errorf("input: %w", err)
		}
	}
	tr, errR := r.CrossTime(out, half, true, tIn)
	tf, errF := r.CrossTime(out, half, false, tIn)
	switch {
	case errR == nil && errF == nil:
		return math.Min(tr, tf) - tIn, nil
	case errR == nil:
		return tr - tIn, nil
	case errF == nil:
		return tf - tIn, nil
	default:
		return 0, fmt.Errorf("output: %v / %v", errR, errF)
	}
}

// WireRC returns the lumped resistance and capacitance of a wire of
// the given length and width (both metres) with the given sheet
// resistance, area cap (F/m²) and edge cap (F/m).
func WireRC(length, width, rSheet, cArea, cEdge float64) (r, c float64) {
	if width <= 0 {
		return 0, 0
	}
	r = rSheet * length / width
	c = cArea*length*width + 2*cEdge*length
	return r, c
}
