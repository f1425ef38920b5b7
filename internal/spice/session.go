package spice

// Session is the batch-reuse entry point of the solver: it elaborates
// a circuit ONCE — interned node indices, MNA dimensions, the dense
// Jacobian slab — and then supports any number of parameter
// perturbations and DC re-solves with zero steady-state allocations.
// It exists for workloads that solve the same topology thousands of
// times with slightly different device parameters (Monte-Carlo yield
// under Vth/β variation), where per-sample re-elaboration through
// New/M/V plus a fresh system would dominate the run; the split
// mirrors logicsim's Reset/Rerun netlist reuse from the fault-sim
// batch path.
//
// A Session owns its Circuit's mutable device parameters: Perturb
// rewrites them in place, so a Circuit must not be shared between
// Sessions, and per-worker parallelism means one Circuit + Session
// per worker. Auto-added device capacitances (Circuit.M) stay at
// their nominal values under Perturb; they do not enter DC solves.
type Session struct {
	c   *Circuit
	sys *system
	v   []float64
	nom []nomParams // per-MOSFET nominal VT0/KP snapshot
}

// nomParams is the elaboration-time parameter snapshot Perturb
// deviates from, so perturbations are absolute against nominal rather
// than cumulative.
type nomParams struct{ vt0, kp float64 }

// NewSession elaborates c. Construction errors recorded by the fluent
// builders surface here, exactly as OP/TransientCtx would surface them.
func NewSession(c *Circuit) (*Session, error) {
	if c.err != nil {
		return nil, c.err
	}
	s := &Session{c: c, sys: newSystem(c)}
	s.v = make([]float64, s.sys.dim)
	s.nom = make([]nomParams, len(c.mos))
	for i := range c.mos {
		s.nom[i] = nomParams{vt0: c.mos[i].p.VT0, kp: c.mos[i].p.KP}
	}
	return s, nil
}

// Dim is the solution-vector length: node count plus source count.
func (s *Session) Dim() int { return s.sys.dim }

// Nominal returns MOSFET i's elaboration-time threshold voltage and
// transconductance.
func (s *Session) Nominal(i int) (vt0, kp float64) {
	return s.nom[i].vt0, s.nom[i].kp
}

// Perturb sets MOSFET i's parameters relative to nominal: threshold
// VT0 = nominal + dVT0, transconductance KP = nominal × kpScale.
// Perturbations are absolute against the elaboration snapshot (never
// cumulative), so a sample loop needs no balancing Reset between
// samples as long as it writes every varied device each time.
func (s *Session) Perturb(i int, dVT0, kpScale float64) {
	m := &s.c.mos[i]
	m.p.VT0 = s.nom[i].vt0 + dVT0
	m.p.KP = s.nom[i].kp * kpScale
}

// NodeIndex resolves a node name to its slot in Solution (-1 for
// ground or unknown names).
func (s *Session) NodeIndex(name string) int { return s.c.NodeIndex(name) }

// SolveFrom runs the DC Newton solve starting from the given initial
// guess (nil means all zeros; shorter slices seed a prefix). The
// initial guess decides which equilibrium a bistable circuit lands
// in, and making it explicit keeps session re-solves bit-identical to
// fresh-elaboration solves from the same guess — the differential
// contract the reuse tests pin. Zero allocations in steady state.
func (s *Session) SolveFrom(init []float64) error {
	n := copy(s.v, init)
	for i := n; i < len(s.v); i++ {
		s.v[i] = 0
	}
	return s.sys.newton(s.v, nil, 0, 0)
}

// Solution exposes the live solution vector (node voltages then
// source branch currents). It is valid until the next SolveFrom;
// callers that need to keep it must copy.
func (s *Session) Solution() []float64 { return s.v }

// OPInto solves the operating point from a zero guess and fills the
// result map, preserving the historical OP contract on top of the
// reusable machinery.
func (s *Session) opInto(out map[string]float64) error {
	if err := s.SolveFrom(nil); err != nil {
		return err
	}
	for i, name := range s.c.nodes {
		out[name] = s.v[i]
	}
	return nil
}

// OP computes the DC operating point and returns node voltages by
// name. One-shot convenience over NewSession + SolveFrom.
func (c *Circuit) OP() (map[string]float64, error) {
	s, err := NewSession(c)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(c.nodes))
	if err := s.opInto(out); err != nil {
		return nil, err
	}
	return out, nil
}
