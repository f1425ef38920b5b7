package spice

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tech"
)

func TestPWL(t *testing.T) {
	w := PWL{T: []float64{0, 1, 2}, Y: []float64{0, 10, 10}}
	cases := []struct{ t, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 5}, {1, 10}, {1.5, 10}, {3, 10},
	}
	for _, c := range cases {
		if got := w.V(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("V(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	if (PWL{}).V(5) != 0 {
		t.Fatal("empty PWL should be 0")
	}
}

func TestResistorDividerOP(t *testing.T) {
	c := New()
	c.V("v1", "a", DC(10))
	c.R("a", "b", 1000)
	c.R("b", "0", 3000)
	op, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op["b"]-7.5) > 1e-3 {
		t.Fatalf("divider voltage = %g, want 7.5", op["b"])
	}
}

func TestRCTransient(t *testing.T) {
	// RC charge: tau = 1k * 1n = 1us; at t=tau, v = 0.632*V.
	c := New()
	c.V("v1", "in", Step(0, 1, 0, 1e-9))
	c.R("in", "out", 1000)
	c.C("out", "0", 1e-9)
	res, err := c.TransientCtx(context.Background(), 5e-6, 1e-8, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := res.At("out", 1e-6)
	if math.Abs(got-0.632) > 0.02 {
		t.Fatalf("RC at tau = %g, want ~0.632", got)
	}
	if v := res.At("out", 5e-6); v < 0.99 {
		t.Fatalf("RC should settle near 1, got %g", v)
	}
}

func TestInverterDC(t *testing.T) {
	p := tech.CDA07
	l := float64(p.Feature) * 1e-9
	for _, in := range []float64{0, p.VDD} {
		c := New()
		c.V("vdd", "vdd", DC(p.VDD))
		c.V("vin", "in", DC(in))
		c.M("mn", "out", "in", "0", tech.NMOS, 2e-6, l, p)
		c.M("mp", "out", "in", "vdd", tech.PMOS, 4e-6, l, p)
		op, err := c.OP()
		if err != nil {
			t.Fatal(err)
		}
		want := p.VDD
		if in > p.VDD/2 {
			want = 0
		}
		if math.Abs(op["out"]-want) > 0.05 {
			t.Fatalf("inverter(%g) out = %g, want %g", in, op["out"], want)
		}
	}
}

func TestInverterTransientDelaysPositive(t *testing.T) {
	p := tech.CDA07
	l := float64(p.Feature) * 1e-9
	rise, fall, err := InverterDelaysCtx(context.Background(), p, 2e-6, 4e-6, l, 50e-15, StopAtPropDelay)
	if err != nil {
		t.Fatal(err)
	}
	if rise <= 0 || fall <= 0 {
		t.Fatalf("non-positive delays: rise=%g fall=%g", rise, fall)
	}
	// Sub-micron inverter with 50fF load: delays should be well under 5ns.
	if rise > 5e-9 || fall > 5e-9 {
		t.Fatalf("implausibly slow: rise=%g fall=%g", rise, fall)
	}
}

func TestMOSCutoff(t *testing.T) {
	m := mosfet{typ: tech.NMOS, w: 1e-6, l: 0.5e-6,
		p: tech.CDA07.MOS(tech.NMOS)}
	i, _, _ := m.ids(5, 0, 0)
	if i != 0 {
		t.Fatalf("cutoff current = %g", i)
	}
	// Saturation current positive and increasing with Vgs.
	i1, _, _ := m.ids(5, 2, 0)
	i2, _, _ := m.ids(5, 3, 0)
	if !(i2 > i1 && i1 > 0) {
		t.Fatalf("saturation ordering broken: %g %g", i1, i2)
	}
	// Symmetric: swapping drain and source negates the current.
	ia, _, _ := m.ids(0, 2, 5)
	ib, _, _ := m.ids(5, 2, 0)
	// With Vs=5 the device sees Vgs=-3: cutoff; not a pure mirror.
	_ = ia
	_ = ib
	// True symmetry check at equal bias: Ids(vd,vg,vs) = -Ids(vs,vg,vd).
	x, _, _ := m.ids(3, 4, 1)
	y, _, _ := m.ids(1, 4, 3)
	if math.Abs(x+y) > 1e-12 {
		t.Fatalf("source/drain symmetry broken: %g vs %g", x, y)
	}
}

func TestPMOSPolarity(t *testing.T) {
	m := mosfet{typ: tech.PMOS, w: 1e-6, l: 0.5e-6, p: tech.CDA07.MOS(tech.PMOS)}
	// PMOS with source at 5V, gate 0, drain 0: conducts, current flows
	// s->d i.e. ids (d->s) negative.
	i, _, _ := m.ids(0, 0, 5)
	if i >= 0 {
		t.Fatalf("PMOS conduction direction wrong: %g", i)
	}
	// Gate at VDD: off.
	i, _, _ = m.ids(0, 5, 5)
	if i != 0 {
		t.Fatalf("PMOS should be off: %g", i)
	}
}

func TestWireRC(t *testing.T) {
	r, c := WireRC(1e-3, 1e-6, 0.05, 1.5e-5, 3.0e-11)
	if math.Abs(r-50) > 1e-9 {
		t.Fatalf("wire R = %g, want 50", r)
	}
	wantC := 1.5e-5*1e-3*1e-6 + 2*3.0e-11*1e-3
	if math.Abs(c-wantC) > 1e-20 {
		t.Fatalf("wire C = %g, want %g", c, wantC)
	}
	if r, c := WireRC(1, 0, 1, 1, 1); r != 0 || c != 0 {
		t.Fatal("zero-width wire should be 0,0")
	}
}

func TestDeckExport(t *testing.T) {
	p := tech.CDA07
	c := New()
	c.V("vdd", "vdd", DC(5))
	c.V("vin", "in", Step(0, 5, 1e-9, 0.1e-9))
	c.M("mn", "out", "in", "0", tech.NMOS, 2e-6, 0.7e-6, p)
	c.R("out", "0", 10000)
	deck := c.Deck("test inverter")
	for _, want := range []string{"* test inverter", "Mmn out in 0 0 NMOS1", "PWL(", ".end"} {
		if !strings.Contains(deck, want) {
			t.Errorf("deck missing %q:\n%s", want, deck)
		}
	}
}

func TestCrossTimeErrors(t *testing.T) {
	c := New()
	c.V("v", "a", DC(1))
	c.R("a", "0", 100)
	res, err := c.TransientCtx(context.Background(), 1e-9, 1e-10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.CrossTime("a", 5, true, 0); err == nil {
		t.Fatal("expected no-crossing error")
	}
	if _, err := res.CrossTime("missing", 0.5, true, 0); err == nil {
		t.Fatal("expected missing-node error")
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 1}, {1, 1}}
	b := []float64{1, 2}
	if col := solveLinear(a, b); col < 0 {
		t.Fatal("singular matrix should fail")
	}
}

// Property: PWL interpolation stays within the envelope of its knots.
func TestQuickPWLEnvelope(t *testing.T) {
	f := func(y0, y1, y2 float64, tf float64) bool {
		if math.IsNaN(y0) || math.IsNaN(y1) || math.IsNaN(y2) || math.IsNaN(tf) {
			return true
		}
		y0, y1, y2 = math.Mod(y0, 100), math.Mod(y1, 100), math.Mod(y2, 100)
		w := PWL{T: []float64{0, 1, 2}, Y: []float64{y0, y1, y2}}
		tt := math.Mod(math.Abs(tf), 3)
		v := w.V(tt)
		lo := math.Min(y0, math.Min(y1, y2))
		hi := math.Max(y0, math.Max(y1, y2))
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// At returns node voltage at t, interpolated between the two nearest
// samples; the transient tests read waveforms with it.
func (r *Result) At(node string, t float64) float64 {
	w := r.wave(node)
	if len(w) == 0 {
		return math.NaN()
	}
	// Times are uniform.
	if t <= r.Times[0] {
		return w[0]
	}
	if t >= r.Times[len(r.Times)-1] {
		return w[len(w)-1]
	}
	h := r.Times[1] - r.Times[0]
	i := int(t / h)
	if i >= len(w)-1 {
		i = len(w) - 2
	}
	frac := (t - r.Times[i]) / h
	return w[i]*(1-frac) + w[i+1]*frac
}
