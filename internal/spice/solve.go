package spice

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cerr"
	"repro/internal/obs"
)

// Solver parameters.
const (
	gmin      = 1e-9 // leak conductance to ground for convergence
	vTol      = 1e-6 // Newton convergence tolerance (volts)
	maxNewton = 200
	dvLimit   = 0.3  // max Newton voltage step (volts), for damping
	numDeriv  = 1e-6 // perturbation for numeric MOS derivatives
)

// Result holds a transient run: shared time points and one waveform
// per circuit unknown.
type Result struct {
	Times []float64
	// waves holds one waveform per MNA unknown, indexed like the
	// solution vector: node voltages, then source branch currents.
	waves [][]float64
	index map[string]int // node name or "I(<source>)" -> waves index
}

// wave returns the waveform of a node or of a source's branch current
// ("I(<source>)"), nil when none was recorded.
func (r *Result) wave(name string) []float64 {
	if i, ok := r.index[name]; ok {
		return r.waves[i]
	}
	return nil
}

// system is the assembled MNA problem at one time point. The matrix
// structure (dimension, row slices) is fixed at elaboration; assemble
// rebuilds the numeric content from scratch every Newton iteration, so
// jac/rhs double as the scratch that solveLinear destroys in place —
// the transient inner loop and the Monte-Carlo sample loop both run
// thousands of solves per analysis, and a per-iteration pristine copy
// would dominate memory traffic for no numeric benefit.
type system struct {
	c   *Circuit
	n   int // node count
	m   int // vsource count
	dim int
	jac [][]float64
	rhs []float64
}

func newSystem(c *Circuit) *system {
	n, m := len(c.nodes), len(c.vsrc)
	dim := n + m
	s := &system{c: c, n: n, m: m, dim: dim}
	s.jac = make([][]float64, dim)
	flat := make([]float64, dim*dim)
	for i := range s.jac {
		s.jac[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	s.rhs = make([]float64, dim)
	return s
}

func (s *system) reset() {
	for i := range s.jac {
		row := s.jac[i]
		for j := range row {
			row[j] = 0
		}
		s.rhs[i] = 0
	}
}

// stampG adds conductance g between nodes a, b (-1 = ground) into the
// Jacobian.
func (s *system) stampG(a, b int, g float64) {
	if a >= 0 {
		s.jac[a][a] += g
		if b >= 0 {
			s.jac[a][b] -= g
		}
	}
	if b >= 0 {
		s.jac[b][b] += g
		if a >= 0 {
			s.jac[b][a] -= g
		}
	}
}

// stampI adds a current i flowing out of node a into node b to the
// residual (KCL: sum of currents leaving node = 0; rhs accumulates -F).
func (s *system) stampI(a, b int, i float64) {
	if a >= 0 {
		s.rhs[a] -= i
	}
	if b >= 0 {
		s.rhs[b] += i
	}
}

// assemble builds the linearised system at voltages v (length n+m:
// node voltages then source branch currents), time t, with transient
// companion models if h > 0 using previous voltages vPrev.
func (s *system) assemble(v, vPrev []float64, t, h float64) {
	s.reset()
	c := s.c
	at := func(i int) float64 {
		if i < 0 {
			return 0
		}
		return v[i]
	}
	// gmin to ground on every node.
	for i := 0; i < s.n; i++ {
		s.stampG(i, -1, gmin)
		s.stampI(i, -1, gmin*v[i])
	}
	for _, r := range c.res {
		g := 1 / r.r
		s.stampG(r.a, r.b, g)
		s.stampI(r.a, r.b, g*(at(r.a)-at(r.b)))
	}
	if h > 0 {
		for _, cp := range c.caps {
			g := cp.c / h
			dv := (at(cp.a) - at(cp.b)) - (prevAt(vPrev, cp.a) - prevAt(vPrev, cp.b))
			i := g * dv // backward Euler companion
			s.stampG(cp.a, cp.b, g)
			s.stampI(cp.a, cp.b, i)
		}
	}
	// MOSFETs: numeric 3-terminal Jacobian.
	for k := range c.mos {
		m := &c.mos[k]
		vd, vg, vs := at(m.d), at(m.g), at(m.s)
		i0, _, _ := m.ids(vd, vg, vs)
		var gdd, gdg, gds float64
		{
			ip, _, _ := m.ids(vd+numDeriv, vg, vs)
			gdd = (ip - i0) / numDeriv
			ip, _, _ = m.ids(vd, vg+numDeriv, vs)
			gdg = (ip - i0) / numDeriv
			ip, _, _ = m.ids(vd, vg, vs+numDeriv)
			gds = (ip - i0) / numDeriv
		}
		// Current i0 flows d -> s (leaves drain node, enters source).
		s.stampI(m.d, m.s, i0)
		// Jacobian rows for drain and source KCL equations.
		add := func(row, col int, g float64) {
			if row >= 0 && col >= 0 {
				s.jac[row][col] += g
			}
		}
		add(m.d, m.d, gdd)
		add(m.d, m.g, gdg)
		add(m.d, m.s, gds)
		add(m.s, m.d, -gdd)
		add(m.s, m.g, -gdg)
		add(m.s, m.s, -gds)
	}
	// Voltage sources: branch current unknowns at index n+k.
	for k, src := range c.vsrc {
		bi := s.n + k
		ib := v[bi]
		// KCL: branch current leaves node a.
		if src.a >= 0 {
			s.jac[src.a][bi] += 1
			s.rhs[src.a] -= ib
		}
		// Constraint: v[a] - wave(t) = 0.
		if src.a >= 0 {
			s.jac[bi][src.a] += 1
		}
		s.rhs[bi] -= at(src.a) - src.wave.V(t)
	}
}

// solveLinear solves jac*x = rhs in place by Gaussian elimination with
// partial pivoting. Returns -1 on success; on a singular matrix it
// returns the column index whose pivot vanished, which the caller maps
// back to the offending circuit unknown (node voltage or source branch
// current) for the typed ERR_SIM_SINGULAR report.
func solveLinear(a [][]float64, b []float64) int {
	n := len(b)
	for col := 0; col < n; col++ {
		// pivot
		p := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, p = v, r
			}
		}
		if best < 1e-18 {
			return col
		}
		if p != col {
			a[p], a[col] = a[col], a[p]
			b[p], b[col] = b[col], b[p]
		}
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			row, prow := a[r], a[col]
			for cc := col; cc < n; cc++ {
				row[cc] -= f * prow[cc]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for cc := r + 1; cc < n; cc++ {
			sum -= a[r][cc] * b[cc]
		}
		b[r] = sum / a[r][r]
	}
	return -1
}

// unknownName maps an MNA column index onto the circuit unknown it
// represents: a node voltage for col < n, a source branch current
// otherwise.
func (s *system) unknownName(col int) string {
	if col >= 0 && col < s.n {
		return s.c.nodes[col]
	}
	if k := col - s.n; k >= 0 && k < s.m {
		return "I(" + s.c.vsrc[k].name + ")"
	}
	return fmt.Sprintf("unknown-%d", col)
}

func prevAt(v []float64, i int) float64 {
	if i < 0 {
		return 0
	}
	return v[i]
}

// newton iterates the nonlinear solve at time t. v is updated in
// place; vPrev supplies transient history (nil/h==0 for DC).
func (s *system) newton(v, vPrev []float64, t, h float64) error {
	for it := 0; it < maxNewton; it++ {
		// assemble fully rewrites jac/rhs, so solveLinear may destroy
		// them in place. (Pivoting swaps jac's row headers between
		// iterations; each row is still a full matrix row, so the next
		// assemble pass stays correct.)
		s.assemble(v, vPrev, t, h)
		rhs := s.rhs
		if col := solveLinear(s.jac, rhs); col >= 0 {
			return cerr.New(cerr.CodeSimSingular,
				"spice: singular system at t=%g: no pivot for %s", t, s.unknownName(col))
		}
		maxDv := 0.0
		for i := 0; i < s.n; i++ {
			dv := rhs[i]
			if dv > dvLimit {
				dv = dvLimit
			} else if dv < -dvLimit {
				dv = -dvLimit
			}
			v[i] += dv
			if a := math.Abs(dv); a > maxDv {
				maxDv = a
			}
		}
		for i := s.n; i < s.dim; i++ {
			v[i] += rhs[i]
		}
		if maxDv < vTol {
			return nil
		}
	}
	return cerr.New(cerr.CodeSimDiverged, "spice: Newton did not converge at t=%g", t)
}

// maxTransientSteps caps the fixed-step transient loop: a hostile
// tstop/h ratio (e.g. 1 second at 1 fs) would otherwise iterate
// effectively forever. Exceeding the cap is a typed
// cerr.ErrBudgetExceeded before any stepping begins.
const maxTransientSteps = 4_000_000

// ctxCheckSteps is how many transient steps elapse between context
// checks: frequent enough to honour millisecond deadlines, sparse
// enough to keep ctx.Err off the inner Newton loop.
const ctxCheckSteps = 64

// Stop ends a transient at the step that completes the measurement it
// serves. TransientCtx calls it after recording each time step and
// returns the run so far once it reports true. A Stop reads only the
// newest samples, so the check costs O(1) per step; StopAtCross and
// StopAtPropDelay build the ones the measurements use.
type Stop func(r *Result) bool

// TransientCtx runs a fixed-step transient analysis from the DC
// operating point at t=0 to tstop with step h, recording every node,
// under cooperative cancellation. A non-nil stop ends the run at the
// first step it accepts; the steps before it are the whole window's,
// bit for bit. A nil stop, or one that never fires, integrates the
// whole window. The context deadline is checked every ctxCheckSteps
// time steps; on expiry the partial Result recorded so far is returned
// together with a typed cerr.ErrBudgetExceeded, so callers can still
// inspect the waveforms up to the cancellation point.
func (c *Circuit) TransientCtx(ctx context.Context, tstop, h float64, stop Stop) (*Result, error) {
	if c.err != nil {
		return nil, c.err
	}
	step := 0
	var endSpan func(...obs.Attr)
	ctx, endSpan = obs.Start(ctx, "spice.transient")
	defer func() { endSpan(obs.Int("steps", step)) }()
	if !(h > 0) || !(tstop > 0) || math.IsInf(h, 0) || math.IsInf(tstop, 0) {
		// The negated comparisons also reject NaN.
		return nil, cerr.New(cerr.CodeInvalidParams, "spice: bad transient params tstop=%g h=%g", tstop, h)
	}
	if tstop/h > maxTransientSteps {
		return nil, cerr.New(cerr.CodeBudgetExceeded,
			"spice: transient needs %g steps, cap is %d", math.Ceil(tstop/h), maxTransientSteps)
	}
	s := newSystem(c)
	v := make([]float64, s.dim)
	if err := s.newton(v, nil, 0, 0); err != nil {
		return nil, cerr.Wrap(cerr.CodeSimDiverged, err, "spice: op failed")
	}
	steps := int(math.Ceil(tstop/h)) + 1
	// One slice per unknown, indexed like v, so recording a step does
	// no map lookups; the name index is built once per run.
	res := &Result{
		Times: make([]float64, 0, steps),
		waves: make([][]float64, s.dim),
		index: make(map[string]int, s.dim),
	}
	for i := range res.waves {
		res.waves[i] = make([]float64, 0, steps)
	}
	for i, n := range c.nodes {
		res.index[n] = i
	}
	// Branch currents: positive = current flowing from the node into
	// the source, so a supplying source reads negative.
	for k, src := range c.vsrc {
		res.index["I("+src.name+")"] = s.n + k
	}
	record := func(t float64) {
		res.Times = append(res.Times, t)
		for i, x := range v {
			res.waves[i] = append(res.waves[i], x)
		}
	}
	record(0)
	vPrev := append([]float64(nil), v...)
	for t := h; t <= tstop+h/2; t += h {
		if step%ctxCheckSteps == 0 {
			if err := ctx.Err(); err != nil {
				return res, cerr.Wrap(cerr.CodeBudgetExceeded, err,
					"spice: transient cancelled at t=%g (%d of ~%d steps)", t, step, steps)
			}
		}
		step++
		copy(vPrev, v)
		if err := s.newton(v, vPrev, t, h); err != nil {
			return res, err
		}
		record(t)
		if stop != nil && stop(res) {
			break
		}
	}
	return res, nil
}
