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
		if r.crosses(w, i, level, rising, tAfter) {
			return r.crossAt(w, i, level), nil
		}
	}
	return 0, fmt.Errorf("spice: node %q never crosses %.3f (%s) after %g",
		node, level, dir(rising), tAfter)
}

// crosses reports whether waveform w crosses level in the given
// direction between samples i-1 and i, where sample i lies at or after
// tAfter. CrossTime and the transient stops share this one comparison,
// so a run stopped at a crossing ends on the sample pair CrossTime
// reports, and the truncated run measures the same bits as the whole
// window.
func (r *Result) crosses(w []float64, i int, level float64, rising bool, tAfter float64) bool {
	if r.Times[i] < tAfter {
		return false
	}
	a, b := w[i-1], w[i]
	if rising {
		return a < level && b >= level
	}
	return a > level && b <= level
}

// crossAt interpolates the time at which w reaches level between
// samples i-1 and i.
func (r *Result) crossAt(w []float64, i int, level float64) float64 {
	a, b := w[i-1], w[i]
	frac := (level - a) / (b - a)
	return r.Times[i-1] + frac*(r.Times[i]-r.Times[i-1])
}

func dir(rising bool) string {
	if rising {
		return "rising"
	}
	return "falling"
}

// edgeGuard starts PropDelay's input search just before the nominal
// edge, so a crossing on the sample at tEdge still counts when the
// accumulated sample time lands a rounding error short of it.
const edgeGuard = 1e-15

// PropDelay measures 50%-to-50% propagation delay from the input edge
// at tEdge on node in to the first subsequent 50% crossing (either
// direction) on node out.
func (r *Result) PropDelay(in, out string, vdd, tEdge float64) (float64, error) {
	half := vdd / 2
	tIn, err := r.CrossTime(in, half, true, tEdge-edgeGuard)
	if err != nil {
		tIn, err = r.CrossTime(in, half, false, tEdge-edgeGuard)
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

// StopAtCross returns the Stop that ends a run on the step completing
// the crossing CrossTime(node, level, rising, tAfter) reports.
func StopAtCross(node string, level float64, rising bool, tAfter float64) Stop {
	return func(r *Result) bool {
		w := r.wave(node)
		return len(w) > 1 && r.crosses(w, len(w)-1, level, rising, tAfter)
	}
}

// StopAtPropDelay returns the Stop that ends a run on the step
// completing the output crossing PropDelay(in, out, vdd, tEdge) reads,
// for an input that crosses vdd/2 once after tEdge, as a step does: the
// first crossing of vdd/2 by out, in either direction, after the
// input's. PropDelay returns the earlier of the output's rising and
// falling crossings, so the later one, which the stopped run never
// reaches, does not change its answer. The Stop keeps the input's
// crossing time between steps, so each run needs its own.
func StopAtPropDelay(in, out string, vdd, tEdge float64) Stop {
	half := vdd / 2
	tIn, inCrossed := 0.0, false
	return func(r *Result) bool {
		i := len(r.Times) - 1
		if !inCrossed {
			w := r.wave(in)
			if len(w) < 2 || !(r.crosses(w, i, half, true, tEdge-edgeGuard) ||
				r.crosses(w, i, half, false, tEdge-edgeGuard)) {
				return false
			}
			tIn, inCrossed = r.crossAt(w, i, half), true
		}
		w := r.wave(out)
		return len(w) > 1 && (r.crosses(w, i, half, true, tIn) || r.crosses(w, i, half, false, tIn))
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
