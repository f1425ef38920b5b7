// Package spice is the built-in circuit simulation utility that
// BISRAMGEN uses for transistor sizing and timing guarantees. It
// implements a small modified-nodal-analysis (MNA) simulator with a
// level-1 (Shichman–Hodges) MOS model, DC operating point and
// fixed-step transient analysis, plus the measurement helpers (delay,
// rise/fall time) and an Elmore RC estimator for interconnect.
//
// The paper states that BISRAMGEN has "built-in access to SPICE
// utilities" to size the N and P transistors of critical gates so that
// rise and fall times balance, and to extrapolate timing guarantees
// from extracted leaf cells; this package is that utility.
package spice

import (
	"math"
	"sort"

	"repro/internal/cerr"
	"repro/internal/tech"
)

// Circuit is a flat netlist of devices between named nodes. Node "0"
// (alias "gnd") is ground.
type Circuit struct {
	nodeIdx map[string]int
	nodes   []string // index -> name; ground is not stored

	res  []resistor
	caps []capacitor
	mos  []mosfet
	vsrc []vsource

	// err is the sticky first construction error. The builder methods
	// are fluent (no per-call error return); an impossible element —
	// non-positive resistance, negative or non-finite capacitance,
	// degenerate MOS geometry — records a typed cerr.ErrNetlist here
	// instead of panicking, and OP/Transient refuse to run until the
	// netlist is rebuilt. Check Err after building, or rely on the
	// analysis entry points surfacing it.
	err error
}

type resistor struct {
	a, b int
	r    float64
}

type capacitor struct {
	a, b int
	c    float64
}

type mosfet struct {
	name    string
	d, g, s int
	typ     tech.MOSType
	w, l    float64 // metres
	p       tech.MOSParams
}

type vsource struct {
	name string
	a    int // positive node (negative terminal is ground)
	wave Waveform
}

// Waveform is a voltage as a function of time.
type Waveform interface {
	V(t float64) float64
}

// DC is a constant waveform.
type DC float64

// V implements Waveform.
func (d DC) V(float64) float64 { return float64(d) }

// VarDC is a settable constant waveform: a batch driver (the
// Monte-Carlo cell tester) keeps the pointer and rewrites Val between
// solves of one elaborated circuit, instead of rebuilding the netlist
// per stimulus — rebinding a plain DC through the Waveform interface
// would allocate on every change.
type VarDC struct{ Val float64 }

// V implements Waveform.
func (d *VarDC) V(float64) float64 { return d.Val }

// PWL is a piecewise-linear waveform given as (time, value) pairs in
// ascending time order. Before the first point it holds the first
// value; after the last it holds the last value.
type PWL struct {
	T []float64
	Y []float64
}

// V implements Waveform.
func (p PWL) V(t float64) float64 {
	n := len(p.T)
	if n == 0 {
		return 0
	}
	if t <= p.T[0] {
		return p.Y[0]
	}
	if t >= p.T[n-1] {
		return p.Y[n-1]
	}
	i := sort.SearchFloat64s(p.T, t)
	if p.T[i] == t {
		return p.Y[i]
	}
	t0, t1 := p.T[i-1], p.T[i]
	y0, y1 := p.Y[i-1], p.Y[i]
	return y0 + (y1-y0)*(t-t0)/(t1-t0)
}

// Step returns a PWL step from v0 to v1 at time t with the given
// transition (slew) time.
func Step(v0, v1, t, slew float64) PWL {
	return PWL{T: []float64{0, t, t + slew}, Y: []float64{v0, v0, v1}}
}

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{nodeIdx: map[string]int{"0": -1, "gnd": -1, "GND": -1}}
}

// Node interns a node name and returns its index (-1 for ground).
func (c *Circuit) Node(name string) int {
	if i, ok := c.nodeIdx[name]; ok {
		return i
	}
	i := len(c.nodes)
	c.nodes = append(c.nodes, name)
	c.nodeIdx[name] = i
	return i
}

// NodeIndex returns the solution-vector index of a node interned by a
// builder call, or -1 for ground and names never used. Unlike Node it
// never interns, so probing is side-effect free.
func (c *Circuit) NodeIndex(name string) int {
	if i, ok := c.nodeIdx[name]; ok {
		return i
	}
	return -1
}

// Failf records a netlist construction error (first one wins) as a
// typed cerr.ErrNetlist.
func (c *Circuit) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = cerr.New(cerr.CodeNetlist, format, args...)
	}
}

// Err returns the first netlist construction error, or nil.
func (c *Circuit) Err() error { return c.err }

// R adds a resistor of r ohms between nodes a and b. A non-positive
// or non-finite resistance is a construction error (see Err); the
// element is skipped.
func (c *Circuit) R(a, b string, r float64) {
	if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		c.Failf("spice: resistor %s-%s: non-positive or non-finite resistance %g", a, b, r)
		return
	}
	c.res = append(c.res, resistor{c.Node(a), c.Node(b), r})
}

// C adds a capacitor of f farads between nodes a and b. A negative or
// non-finite capacitance is a construction error (see Err); the
// element is skipped.
func (c *Circuit) C(a, b string, f float64) {
	if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		c.Failf("spice: capacitor %s-%s: negative or non-finite capacitance %g", a, b, f)
		return
	}
	if f == 0 {
		return
	}
	c.caps = append(c.caps, capacitor{c.Node(a), c.Node(b), f})
}

// M adds a MOSFET. w and l are in metres; parameters come from the
// process deck. Device capacitances (gate and junction) are added
// automatically as grounded linear capacitors. Degenerate geometry
// (non-positive or non-finite w or l) is a construction error.
func (c *Circuit) M(name string, d, g, s string, typ tech.MOSType, w, l float64, p *tech.Process) {
	if w <= 0 || l <= 0 || math.IsNaN(w) || math.IsInf(w, 0) || math.IsNaN(l) || math.IsInf(l, 0) {
		c.Failf("spice: mosfet %s: degenerate geometry w=%g l=%g", name, w, l)
		return
	}
	mp := p.MOS(typ)
	c.mos = append(c.mos, mosfet{name: name, d: c.Node(d), g: c.Node(g), s: c.Node(s), typ: typ, w: w, l: l, p: mp})
	c.C(g, "0", mp.CgsPerW*w)
	c.C(d, "0", mp.CjPerW*w)
	c.C(s, "0", mp.CjPerW*w)
}

// V adds an independent voltage source from node a to ground. A nil
// waveform is a construction error.
func (c *Circuit) V(name, a string, w Waveform) {
	if w == nil {
		c.Failf("spice: source %s: nil waveform", name)
		return
	}
	c.vsrc = append(c.vsrc, vsource{name: name, a: c.Node(a), wave: w})
}

// ids computes the drain current of m and its partial derivatives
// (gm = dI/dVgs, gds = dI/dVds) at the given node voltages, handling
// source/drain symmetry and both polarities. Current flows d->s for
// NMOS conduction.
func (m *mosfet) ids(vd, vg, vs float64) (i, gm, gds float64) {
	sign := 1.0
	vt := m.p.VT0
	if m.typ == tech.PMOS {
		// Transform to equivalent NMOS: negate all voltages.
		vd, vg, vs = -vd, -vg, -vs
		vt = -vt // PMOS VT0 is negative; equivalent NMOS threshold is positive
		sign = -1.0
	}
	swapped := false
	if vd < vs {
		vd, vs = vs, vd
		swapped = true
	}
	vgs := vg - vs
	vds := vd - vs
	beta := m.p.KP * m.w / m.l
	clm := 1 + m.p.Lambda*vds
	switch {
	case vgs <= vt:
		i, gm, gds = 0, 0, 0
	case vds < vgs-vt: // linear
		i = beta * ((vgs-vt)*vds - 0.5*vds*vds) * clm
		gm = beta * vds * clm
		gds = beta*((vgs-vt)-vds)*clm + beta*((vgs-vt)*vds-0.5*vds*vds)*m.p.Lambda
	default: // saturation
		vov := vgs - vt
		i = 0.5 * beta * vov * vov * clm
		gm = beta * vov * clm
		gds = 0.5 * beta * vov * vov * m.p.Lambda
	}
	if swapped {
		// Current direction reverses; gm referenced to the true gate
		// still, gds symmetric. For Newton stamping we only need i and
		// conductances to remain consistent: handle by sign flip of i
		// and noting roles of d/s swapped (caller stamps via numeric
		// derivative fallback, so this branch only flips i).
		i = -i
	}
	return sign * i, gm, gds
}
