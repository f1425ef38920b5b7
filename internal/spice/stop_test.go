package spice

import (
	"context"
	"math"
	"testing"

	"repro/internal/tech"
)

// TestStopEndsOnMeasuredStep: a stopped run is a prefix of the whole
// window's run, bit for bit, that ends on the sample completing the
// crossing its measurement reads, and the measurement is the same.
func TestStopEndsOnMeasuredStep(t *testing.T) {
	p := tech.CDA07
	l := float64(p.Feature) * 1e-9
	rc := func() *Circuit {
		c := New()
		c.V("v1", "in", Step(0, 1, 0, 1e-9))
		c.R("in", "out", 1000)
		c.C("out", "0", 1e-9)
		return c
	}
	inverter := func(from, to float64) func() *Circuit {
		return func() *Circuit {
			c := New()
			c.V("vdd", "vdd", DC(p.VDD))
			c.V("vin", "in", Step(from, to, 2e-9, 50e-12))
			c.M("mn", "out", "in", "0", tech.NMOS, 2e-6, l, p)
			c.M("mp", "out", "in", "vdd", tech.PMOS, 4e-6, l, p)
			c.C("out", "0", 50e-15)
			return c
		}
	}
	crossTime := func(r *Result) (float64, error) { return r.CrossTime("out", 0.5, true, 0) }
	propDelay := func(r *Result) (float64, error) { return r.PropDelay("in", "out", p.VDD, 2e-9) }
	for _, tc := range []struct {
		name     string
		build    func() *Circuit
		tstop, h float64
		stop     func() Stop
		measure  func(*Result) (float64, error)
		out      float64 // the output crossing's level
	}{
		{"rc", rc, 5e-6, 1e-8, func() Stop { return StopAtCross("out", 0.5, true, 0) }, crossTime, 0.5},
		{"inverter rising input", inverter(0, p.VDD), 8e-9, 5e-12,
			func() Stop { return StopAtPropDelay("in", "out", p.VDD, 2e-9) }, propDelay, p.VDD / 2},
		{"inverter falling input", inverter(p.VDD, 0), 8e-9, 5e-12,
			func() Stop { return StopAtPropDelay("in", "out", p.VDD, 2e-9) }, propDelay, p.VDD / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full, err := tc.build().TransientCtx(context.Background(), tc.tstop, tc.h, nil)
			if err != nil {
				t.Fatal(err)
			}
			stopped, err := tc.build().TransientCtx(context.Background(), tc.tstop, tc.h, tc.stop())
			if err != nil {
				t.Fatal(err)
			}
			n := len(stopped.Times)
			if n < 2 || n >= len(full.Times)/2 {
				t.Fatalf("stopped run kept %d of %d samples", n, len(full.Times))
			}
			for i := range stopped.waves {
				for k := 0; k < n; k++ {
					if math.Float64bits(stopped.waves[i][k]) != math.Float64bits(full.waves[i][k]) ||
						math.Float64bits(stopped.Times[k]) != math.Float64bits(full.Times[k]) {
						t.Fatalf("unknown %d differs from the whole window at sample %d", i, k)
					}
				}
			}
			out := stopped.wave("out")
			if a, b := out[n-2], out[n-1]; (a-tc.out)*(b-tc.out) > 0 {
				t.Fatalf("last pair %g, %g does not straddle %g", a, b, tc.out)
			}
			got, err := tc.measure(stopped)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.measure(full)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("stopped run measures %v, whole window %v", got, want)
			}
		})
	}
}

// TestStopNeverFiring: a run whose crossing never comes integrates the
// whole window, and the measurement fails as it does without a stop.
func TestStopNeverFiring(t *testing.T) {
	c := New()
	c.V("v", "a", DC(1))
	c.R("a", "0", 100)
	res, err := c.TransientCtx(context.Background(), 1e-9, 1e-10, StopAtCross("a", 5, true, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) != 11 {
		t.Fatalf("run kept %d samples, want the whole window's 11", len(res.Times))
	}
	if _, err := res.CrossTime("a", 5, true, 0); err == nil {
		t.Fatal("expected no-crossing error")
	}
}
