package spice

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/tech"
)

// InverterDelaysCtx measures the output-rising and output-falling
// 50/50 propagation delays of a CMOS inverter under a fast input step.
// Each of its two transient runs ends where stop says: StopAtPropDelay
// ends it at the output crossing it measures, and a nil stop integrates
// the whole window, the oracle the early stop is tested against. The
// runs use the caller's context, so deadlines bound them and an
// attached obs.Trace records their spans.
func InverterDelaysCtx(ctx context.Context, p *tech.Process, wn, wp, l, cload float64,
	stop func(in, out string, vdd, tEdge float64) Stop) (rise, fall float64, err error) {
	tstop := 8e-9
	edge := 2e-9
	slew := 50e-12
	build := func(up bool) *Circuit {
		c := New()
		c.V("vdd", "vdd", DC(p.VDD))
		var wave Waveform
		if up {
			wave = Step(0, p.VDD, edge, slew)
		} else {
			wave = Step(p.VDD, 0, edge, slew)
		}
		c.V("vin", "in", wave)
		c.M("mn", "out", "in", "0", tech.NMOS, wn, l, p)
		c.M("mp", "out", "in", "vdd", tech.PMOS, wp, l, p)
		c.C("out", "0", cload)
		return c
	}
	until := func() Stop {
		if stop == nil {
			return nil
		}
		return stop("in", "out", p.VDD, edge)
	}
	// Input rising -> output falls.
	res, err := build(true).TransientCtx(ctx, tstop, 5e-12, until())
	if err != nil {
		return 0, 0, fmt.Errorf("fall sim: %w", err)
	}
	fall, err = res.PropDelay("in", "out", p.VDD, edge)
	if err != nil {
		return 0, 0, fmt.Errorf("fall measure: %w", err)
	}
	// Input falling -> output rises.
	res, err = build(false).TransientCtx(ctx, tstop, 5e-12, until())
	if err != nil {
		return 0, 0, fmt.Errorf("rise sim: %w", err)
	}
	rise, err = res.PropDelay("in", "out", p.VDD, edge)
	if err != nil {
		return 0, 0, fmt.Errorf("rise measure: %w", err)
	}
	return rise, fall, nil
}

// Deck renders the circuit as a SPICE input deck, the simulation-model
// export format BISRAMGEN provides alongside layouts.
func (c *Circuit) Deck(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "* %s\n", title)
	name := func(i int) string {
		if i < 0 {
			return "0"
		}
		return c.nodes[i]
	}
	for i, r := range c.res {
		fmt.Fprintf(&b, "R%d %s %s %.6g\n", i, name(r.a), name(r.b), r.r)
	}
	for i, cp := range c.caps {
		fmt.Fprintf(&b, "C%d %s %s %.6g\n", i, name(cp.a), name(cp.b), cp.c)
	}
	for _, m := range c.mos {
		model := "NMOS1"
		if m.typ == tech.PMOS {
			model = "PMOS1"
		}
		fmt.Fprintf(&b, "M%s %s %s %s %s %s W=%.4gu L=%.4gu\n",
			m.name, name(m.d), name(m.g), name(m.s), name(m.s), model, m.w*1e6, m.l*1e6)
	}
	for _, v := range c.vsrc {
		switch w := v.wave.(type) {
		case DC:
			fmt.Fprintf(&b, "V%s %s 0 DC %.4g\n", v.name, name(v.a), float64(w))
		case PWL:
			fmt.Fprintf(&b, "V%s %s 0 PWL(", v.name, name(v.a))
			for i := range w.T {
				if i > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%.4g %.4g", w.T[i], w.Y[i])
			}
			b.WriteString(")\n")
		default:
			fmt.Fprintf(&b, "V%s %s 0 DC 0\n", v.name, name(v.a))
		}
	}
	b.WriteString(".end\n")
	return b.String()
}
