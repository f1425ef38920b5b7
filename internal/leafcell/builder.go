// Package leafcell contains BISRAMGEN's parametric leaf-cell
// generators. Every generator consumes only the process design rules
// (design-rule independence) plus its sizing parameters, and emits
// both the cell geometry (internal/geom) and a transistor-level
// netlist that the extractor turns into a SPICE circuit with
// wire-derived parasitics — the "generate simple leaf cells ahead of
// time and extract and simulate them" flow of the paper.
package leafcell

import (
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/spice"
	"repro/internal/tech"
)

// MOS is one transistor of a cell's extracted netlist. Net names are
// cell-local; W and L are in dbu (nm).
type MOS struct {
	Name    string
	D, G, S string
	Type    tech.MOSType
	W, L    int
}

// Cell couples geometry with its transistor netlist.
type Cell struct {
	*geom.Cell
	Transistors []MOS
	P           *tech.Process
}

// B is the drawing helper shared by all generators: a thin layer over
// geom.Cell that works in lambda units and records transistors.
type B struct {
	P *tech.Process
	C *Cell
}

// newB starts a cell.
func newB(p *tech.Process, name string) *B {
	return &B{P: p, C: &Cell{Cell: geom.NewCell(name), P: p}}
}

// L converts lambdas to dbu.
func (b *B) L(n int) int { return b.P.L(n) }

// Rect adds a rectangle given in lambda coordinates.
func (b *B) Rect(l geom.Layer, x0, y0, x1, y1 int, net string) {
	b.C.AddShape(l, geom.R(b.L(x0), b.L(y0), b.L(x1), b.L(y1)), net)
}

// RectDBU adds a rectangle in raw dbu coordinates.
func (b *B) RectDBU(l geom.Layer, r geom.Rect, net string) {
	b.C.AddShape(l, r, net)
}

// Port adds a port with lambda coordinates.
func (b *B) Port(name string, l geom.Layer, x0, y0, x1, y1 int, dir geom.PortDir) {
	b.C.AddPort(name, l, geom.R(b.L(x0), b.L(y0), b.L(x1), b.L(y1)), dir)
}

// Abut sets the abutment box in lambda coordinates.
func (b *B) Abut(x0, y0, x1, y1 int) {
	b.C.Abut = geom.R(b.L(x0), b.L(y0), b.L(x1), b.L(y1))
}

// Contact draws a contact cut with its metal1 enclosure at the lambda
// position (x, y) = lower-left of the cut.
func (b *B) Contact(x, y int, net string) {
	cs := b.P.ContactSize
	en := b.P.ContactEnclosure
	x0, y0 := b.L(x), b.L(y)
	b.RectDBU(tech.Contact, geom.R(x0, y0, x0+cs, y0+cs), net)
	b.RectDBU(tech.Metal1, geom.R(x0-en, y0-en, x0+cs+en, y0+cs+en), net)
}

// Device draws a transistor in a standard vertical-gate template at
// lambda position (x, y) = lower-left of its active area, with channel
// width w lambdas (vertical extent) and minimum length. It records the
// netlist entry and returns the lambda-space bounding box of the
// device (active plus endcaps).
//
// Template (in lambdas, active 11λ wide):
//
//	x+0..x+4   source contact column (M1 tab x..x+4)
//	x+5..x+7   poly gate (vertical, extends 2λ past active)
//	x+7..x+11  drain contact column (M1 tab x+7..x+11)
//
// The 3λ gap between the source and drain M1 tabs meets the metal1
// spacing rule, and a 14λ device pitch keeps 3λ between the tabs of
// adjacent devices.
func (b *B) Device(name string, x, y, w int, typ tech.MOSType, d, g, s string) geom.Rect {
	// Active region: 11λ wide, w tall.
	b.Rect(tech.Active, x, y, x+11, y+w, "")
	// Select layer.
	sel := tech.NPlus
	if typ == tech.PMOS {
		sel = tech.PPlus
		// N-well around PMOS active with 2λ margin (well rules are
		// checked per-cell region, not per device pair).
		b.Rect(tech.NWell, x-2, y-2, x+13, y+w+2, "")
	}
	b.Rect(sel, x-1, y-1, x+12, y+w+1, "")
	// Gate poly with 2λ endcaps.
	b.Rect(tech.Poly, x+5, y-2, x+7, y+w+2, g)
	// Source/drain contacts + M1 tabs, centred vertically.
	cy := y + w/2 - 1
	b.Contact(x+1, cy, s)
	b.Contact(x+8, cy, d)
	b.C.Transistors = append(b.C.Transistors, MOS{
		Name: name, D: d, G: g, S: s, Type: typ,
		W: b.L(w), L: b.P.Feature,
	})
	return geom.R(x-1, y-2, x+12, y+w+2)
}

// Wire draws a metal wire of the layer's minimum width between two
// lambda points (Manhattan: horizontal then vertical).
func (b *B) Wire(l geom.Layer, x0, y0, x1, y1 int, net string) {
	wHalf := b.P.MinWidth(l) / 2
	p0 := geom.Point{X: b.L(x0), Y: b.L(y0)}
	p1 := geom.Point{X: b.L(x1), Y: b.L(y1)}
	if p0.X != p1.X {
		b.RectDBU(l, geom.R(p0.X-wHalf, p0.Y-wHalf, p1.X+wHalf, p0.Y+wHalf), net)
	}
	if p0.Y != p1.Y {
		b.RectDBU(l, geom.R(p1.X-wHalf, p0.Y-wHalf, p1.X+wHalf, p1.Y+wHalf), net)
	}
}

// Done finalises and returns the cell.
func (b *B) Done() *Cell { return b.C }

// Extract converts the cell's transistor netlist into a SPICE circuit
// with wire parasitics: every labelled net receives the capacitance of
// its shapes (area and fringe) as a grounded capacitor, which is how
// BISRAMGEN extrapolates timing from leaf cells. Net names are
// prefixed to keep multiple extracted cells separable in one circuit.
func (c *Cell) Extract(ckt *spice.Circuit, prefix string) {
	pin := func(n string) string {
		if n == "0" || n == "gnd" || n == "GND" {
			return "0"
		}
		return prefix + n
	}
	for _, m := range c.Transistors {
		ckt.M(prefix+m.Name, pin(m.D), pin(m.G), pin(m.S), m.Type,
			float64(m.W)*1e-9, float64(m.L)*1e-9, c.P)
	}
	// Capacitors in net order, so one cell always yields one deck.
	caps := c.WireCaps()
	nets := make([]string, 0, len(caps))
	for n := range caps {
		if n != "0" {
			nets = append(nets, n)
		}
	}
	slices.Sort(nets)
	for _, n := range nets {
		ckt.C(pin(n), "0", caps[n])
	}
}

// WireCaps returns per-net wiring capacitance (farads) summed over the
// cell's labelled shapes.
func (c *Cell) WireCaps() map[string]float64 {
	caps := map[string]float64{}
	for _, s := range c.Shapes {
		if s.Net == "" {
			continue
		}
		w, ok := c.P.Wire[s.Layer]
		if !ok {
			continue
		}
		wm := float64(s.Rect.W()) * 1e-9
		hm := float64(s.Rect.H()) * 1e-9
		caps[s.Net] += w.CArea*wm*hm + w.CEdge*2*(wm+hm)
	}
	return caps
}

// CheckDRC runs the simplified design-rule check on the cell with the
// process rules for the drawn layers.
func (c *Cell) CheckDRC(max int) []geom.Violation {
	rules := map[geom.Layer]geom.Rule{
		tech.Poly:   c.P.Rules[tech.Poly],
		tech.Metal1: c.P.Rules[tech.Metal1],
		tech.Metal2: c.P.Rules[tech.Metal2],
		tech.Metal3: c.P.Rules[tech.Metal3],
	}
	return geom.Check(c.Cell, rules, max)
}

// sanity panics with context if a generator produced an empty cell —
// generators are internal, so this is a programming error, and the
// panic is a documented invariant site of the cerr panic policy (see
// package cerr). Generators run behind compile-stage Recover guards,
// so the panic reaches compiler callers as a typed ErrInternal.
func sanity(c *Cell) *Cell {
	if c.Bounds().Empty() {
		panic(fmt.Sprintf("leafcell: %s has empty bounds", c.Name))
	}
	return c
}
