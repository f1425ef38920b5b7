package spice

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/cerr"
	"repro/internal/tech"
)

// TestMOSRegionContinuity probes the level-1 model across the
// linear/saturation boundary: current and its numeric derivative must
// be continuous (the Newton solver depends on it).
func TestMOSRegionContinuity(t *testing.T) {
	m := mosfet{typ: tech.NMOS, w: 2e-6, l: 0.7e-6, p: tech.CDA07.MOS(tech.NMOS)}
	vgs := 2.5
	vdsat := vgs - m.p.VT0
	below, _, _ := m.ids(vdsat-1e-6, vgs, 0)
	above, _, _ := m.ids(vdsat+1e-6, vgs, 0)
	if rel := math.Abs(above-below) / above; rel > 1e-3 {
		t.Fatalf("current discontinuity at pinch-off: %g vs %g", below, above)
	}
	// Monotone in Vds across the boundary.
	prev := -1.0
	for vds := 0.0; vds <= 5; vds += 0.05 {
		i, _, _ := m.ids(vds, vgs, 0)
		if i < prev-1e-12 {
			t.Fatalf("Ids not monotone in Vds at %g", vds)
		}
		prev = i
	}
}

// TestNMOSPassGateDegradedHigh reproduces the textbook pass-gate
// behaviour the 6T cell depends on: an NMOS passing a high level
// stops a threshold below the gate drive.
func TestNMOSPassGateDegradedHigh(t *testing.T) {
	p := tech.CDA07
	l := float64(p.Feature) * 1e-9
	c := New()
	c.V("vdd", "vdd", DC(p.VDD))
	c.V("vg", "g", DC(p.VDD))
	c.M("mpass", "vdd", "g", "out", tech.NMOS, 2e-6, l, p)
	c.C("out", "0", 10e-15)
	res, err := c.TransientCtx(context.Background(), 20e-9, 20e-12, nil)
	if err != nil {
		t.Fatal(err)
	}
	final := res.At("out", 20e-9)
	want := p.VDD - p.NMOS.VT0
	if math.Abs(final-want) > 0.35 {
		t.Fatalf("pass-gate high = %.2f V, want ~VDD-VT = %.2f V", final, want)
	}
}

// TestRingOscillatorFrequency builds a 3-stage ring and checks it
// oscillates with a period in a plausible band for the process.
func TestRingOscillatorFrequency(t *testing.T) {
	p := tech.CDA07
	l := float64(p.Feature) * 1e-9
	wn, wp := 2e-6, 5e-6
	c := New()
	c.V("vdd", "vdd", DC(p.VDD))
	nodes := []string{"a", "b", "cc"}
	for i := range nodes {
		in := nodes[i]
		out := nodes[(i+1)%3]
		c.M("mn"+in, out, in, "0", tech.NMOS, wn, l, p)
		c.M("mp"+in, out, in, "vdd", tech.PMOS, wp, l, p)
		c.C(out, "0", 15e-15)
	}
	// Kick-start: a brief pulse on node a.
	c.R("kick", "a", 10000)
	c.V("vk", "kick", PWL{T: []float64{0, 1e-10, 2e-9, 2.1e-9}, Y: []float64{5, 5, 5, 0}})
	res, err := c.TransientCtx(context.Background(), 30e-9, 10e-12, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Count rising crossings of mid-rail on node b after startup.
	half := p.VDD / 2
	crossings := 0
	tAfter := 5e-9
	for {
		tc, err := res.CrossTime("b", half, true, tAfter)
		if err != nil {
			break
		}
		crossings++
		tAfter = tc + 1e-11
		if crossings > 200 {
			break
		}
	}
	if crossings < 3 {
		t.Fatalf("ring did not oscillate (%d rising crossings)", crossings)
	}
}

func TestStepWaveformShape(t *testing.T) {
	w := Step(0, 5, 1e-9, 0.2e-9)
	if w.V(0) != 0 || w.V(0.9e-9) != 0 {
		t.Fatal("pre-edge value wrong")
	}
	if math.Abs(w.V(1.1e-9)-2.5) > 1e-9 {
		t.Fatalf("mid-slew value %g", w.V(1.1e-9))
	}
	if w.V(2e-9) != 5 {
		t.Fatal("post-edge value wrong")
	}
}

func TestTransientRejectsBadParams(t *testing.T) {
	c := New()
	c.V("v", "a", DC(1))
	c.R("a", "0", 100)
	if _, err := c.TransientCtx(context.Background(), 0, 1e-9, nil); err == nil {
		t.Fatal("zero tstop accepted")
	}
	if _, err := c.TransientCtx(context.Background(), 1e-9, 0, nil); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestBadElementsAreTypedErrors(t *testing.T) {
	c := New()
	c.R("a", "b", -5)
	if err := c.err; err == nil {
		t.Error("non-positive resistor accepted")
	} else if !errors.Is(err, cerr.ErrNetlist) {
		t.Errorf("resistor error must be ErrNetlist, got %v", err)
	}
	c2 := New()
	c2.C("a", "b", -1e-12)
	if c2.err == nil {
		t.Error("negative capacitor accepted")
	}
	c3 := New()
	c3.C("a", "b", math.NaN())
	if c3.err == nil {
		t.Error("NaN capacitor accepted")
	}
	// A failed netlist refuses to simulate, with the construction error.
	if _, err := c3.OP(); err == nil || !errors.Is(err, cerr.ErrNetlist) {
		t.Errorf("OP on failed netlist must return ErrNetlist, got %v", err)
	}
}
