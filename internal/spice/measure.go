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

// SourceCharge integrates the current delivered BY the named voltage
// source over [t0, t1] (coulombs, positive = sourcing). Useful for
// CV² energy checks: the charge a supply delivers into a switched
// capacitor equals C·Vdd.
func (r *Result) SourceCharge(srcName string, t0, t1 float64) (float64, error) {
	w := r.wave("I(" + srcName + ")")
	if w == nil {
		return 0, fmt.Errorf("spice: no current recorded for source %q", srcName)
	}
	q := 0.0
	for i := 1; i < len(r.Times); i++ {
		ta, tb := r.Times[i-1], r.Times[i]
		if tb <= t0 || ta >= t1 {
			continue
		}
		// Branch current is node->source; negate for delivered charge.
		q += -(w[i-1] + w[i]) / 2 * (tb - ta)
	}
	return q, nil
}

// RCStage is one segment of an RC ladder/tree for Elmore analysis.
type RCStage struct {
	R float64 // series resistance into the node
	C float64 // capacitance at the node
	// Children are downstream branches; Elmore delay to a leaf sums
	// upstream R times total downstream C.
	Children []*RCStage
}

// totalC returns the capacitance of the subtree rooted at s.
func (s *RCStage) totalC() float64 {
	c := s.C
	for _, ch := range s.Children {
		c += ch.totalC()
	}
	return c
}

// ElmoreDelay returns the Elmore delay from the tree root to the stage
// reached by following the given child-index path (empty path = root
// node itself).
func ElmoreDelay(root *RCStage, path ...int) float64 {
	delay := 0.0
	node := root
	delay += node.R * node.totalC()
	for _, idx := range path {
		node = node.Children[idx]
		delay += node.R * node.totalC()
	}
	return delay
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
