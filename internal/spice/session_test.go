package spice

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/cerr"
	"repro/internal/tech"
)

// perturbedProcess returns a copy of p whose MOS parameters for typ
// are shifted exactly the way Session.Perturb shifts a device:
// VT0 += dVT0, KP *= kpScale.
func perturbedProcess(p *tech.Process, typ tech.MOSType, dVT0, kpScale float64) *tech.Process {
	q := *p
	switch typ {
	case tech.NMOS:
		q.NMOS.VT0 += dVT0
		q.NMOS.KP *= kpScale
	default:
		q.PMOS.VT0 += dVT0
		q.PMOS.KP *= kpScale
	}
	return &q
}

// corpusDevice describes one MOSFET of a corpus circuit so the test
// can rebuild it with perturbed parameters baked in at elaboration.
type corpusDevice struct {
	name    string
	d, g, s string
	typ     tech.MOSType
	w, l    float64
}

// corpusSource is a DC source feeding one node. Sources are a slice,
// not a map: build order decides node interning order, and the
// differential test depends on both builds interning identically.
type corpusSource struct {
	node string
	v    float64
}

// corpusCircuit is a rebuildable netlist: sources and devices only
// (every corpus circuit is DC, caps are irrelevant to the solve but
// are added identically by M either way).
type corpusCircuit struct {
	name string
	dev  []corpusDevice
	src  []corpusSource
	init map[string]float64 // initial-guess voltages by node name
}

func (cc corpusCircuit) build(p *tech.Process, dVT0 []float64, kpScale []float64) *Circuit {
	c := New()
	for _, s := range cc.src {
		c.V("v"+s.node, s.node, DC(s.v))
	}
	for i, d := range cc.dev {
		pp := p
		if dVT0 != nil {
			pp = perturbedProcess(p, d.typ, dVT0[i], kpScale[i])
		}
		c.M(d.name, d.d, d.g, d.s, d.typ, d.w, d.l, pp)
	}
	return c
}

func (cc corpusCircuit) initVector(s *Session) []float64 {
	init := make([]float64, s.Dim())
	for node, v := range cc.init {
		if i := s.NodeIndex(node); i >= 0 {
			init[i] = v
		}
	}
	return init
}

func corpus(p *tech.Process) []corpusCircuit {
	l := float64(p.Feature) * 1e-9
	vdd := p.VDD
	inv := func(vin float64) corpusCircuit {
		return corpusCircuit{
			name: fmt.Sprintf("inverter@%.2g", vin),
			dev: []corpusDevice{
				{"mn", "out", "in", "0", tech.NMOS, 4 * l, l},
				{"mp", "out", "in", "vdd", tech.PMOS, 8 * l, l},
			},
			src:  []corpusSource{{"vdd", vdd}, {"in", vin}},
			init: map[string]float64{"vdd": vdd, "out": vdd - vin},
		}
	}
	cell := corpusCircuit{
		name: "sram6t-hold",
		dev: []corpusDevice{
			{"mn1", "q", "qb", "0", tech.NMOS, 4 * l, l},
			{"mp1", "q", "qb", "vdd", tech.PMOS, 2 * l, l},
			{"mn2", "qb", "q", "0", tech.NMOS, 4 * l, l},
			{"mp2", "qb", "q", "vdd", tech.PMOS, 2 * l, l},
			{"ma1", "bl", "wl", "q", tech.NMOS, 2 * l, l},
			{"ma2", "blb", "wl", "qb", tech.NMOS, 2 * l, l},
		},
		src: []corpusSource{{"vdd", vdd}, {"wl", 0}, {"bl", vdd}, {"blb", vdd}},
		// Biased toward the q=0 state: the explicit guess picks the
		// equilibrium, which is the whole point of SolveFrom.
		init: map[string]float64{"vdd": vdd, "bl": vdd, "blb": vdd, "qb": vdd},
	}
	return []corpusCircuit{inv(0), inv(vdd / 2), inv(vdd), cell}
}

// lcg is a tiny deterministic generator for perturbation draws.
type lcg uint64

func (g *lcg) next() float64 { // uniform in [-1, 1)
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(int64(*g)>>11) / (1 << 52)
}

// TestSessionPerturbMatchesFreshElaboration pins the batch-reuse
// contract: Perturb + SolveFrom on a long-lived Session is
// bit-identical to elaborating a fresh circuit with the perturbed
// parameters baked in and solving from the same initial guess.
func TestSessionPerturbMatchesFreshElaboration(t *testing.T) {
	procs := []*tech.Process{tech.CDA07}
	for _, corner := range []string{"slow", "fast"} {
		p, err := tech.CDA07.Corner(corner)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	for _, p := range procs {
		for _, cc := range corpus(p) {
			t.Run(p.Name+"/"+cc.name, func(t *testing.T) {
				sess, err := NewSession(cc.build(p, nil, nil))
				if err != nil {
					t.Fatal(err)
				}
				init := cc.initVector(sess)
				g := lcg(12345)
				for trial := 0; trial < 8; trial++ {
					dVT0 := make([]float64, len(cc.dev))
					kps := make([]float64, len(cc.dev))
					for i := range cc.dev {
						dVT0[i] = 0.15 * g.next() // up to ±150 mV threshold shift
						kps[i] = 1 + 0.2*g.next() // ±20% transconductance
					}
					for i := range cc.dev {
						sess.Perturb(i, dVT0[i], kps[i])
					}
					if err := sess.SolveFrom(init); err != nil {
						t.Fatalf("trial %d session solve: %v", trial, err)
					}
					fresh, err := NewSession(cc.build(p, dVT0, kps))
					if err != nil {
						t.Fatal(err)
					}
					if err := fresh.SolveFrom(init); err != nil {
						t.Fatalf("trial %d fresh solve: %v", trial, err)
					}
					a, b := sess.Solution(), fresh.Solution()
					if len(a) != len(b) {
						t.Fatalf("dim mismatch %d vs %d", len(a), len(b))
					}
					for i := range a {
						if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
							t.Fatalf("trial %d: unknown %d differs: session %v fresh %v",
								trial, i, a[i], b[i])
						}
					}
				}
			})
		}
	}
}

// TestSessionSolveFromZeroAlloc pins the arena contract: steady-state
// Perturb + re-solve must not allocate.
func TestSessionSolveFromZeroAlloc(t *testing.T) {
	p := tech.CDA07
	cc := corpus(p)[3] // 6T cell, the real workload
	sess, err := NewSession(cc.build(p, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	init := cc.initVector(sess)
	if err := sess.SolveFrom(init); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		sess.Perturb(0, 0.01, 1.02)
		if err := sess.SolveFrom(init); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Perturb+SolveFrom allocates %.1f per run, want 0", allocs)
	}
}

// TestSessionConcurrentWorkers exercises the per-worker solver-state
// pattern under the race detector: one Circuit + Session per
// goroutine, identical perturbation schedules, identical results.
func TestSessionConcurrentWorkers(t *testing.T) {
	p := tech.CDA07
	cc := corpus(p)[3]
	const workers = 8
	results := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := NewSession(cc.build(p, nil, nil))
			if err != nil {
				t.Error(err)
				return
			}
			init := cc.initVector(sess)
			g := lcg(999)
			for trial := 0; trial < 32; trial++ {
				for i := 0; i < len(sess.c.mos); i++ {
					sess.Perturb(i, 0.1*g.next(), 1+0.1*g.next())
				}
				if err := sess.SolveFrom(init); err != nil {
					t.Errorf("worker %d trial %d: %v", w, trial, err)
					return
				}
			}
			results[w] = append([]float64(nil), sess.Solution()...)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if results[0] == nil || results[w] == nil {
			t.Fatal("missing worker result")
		}
		for i := range results[0] {
			if math.Float64bits(results[0][i]) != math.Float64bits(results[w][i]) {
				t.Fatalf("worker %d diverged from worker 0 at unknown %d", w, i)
			}
		}
	}
}

// TestSingularSystemNamesUnknown checks the ERR_SIM_SINGULAR
// contract: a rank-deficient MNA system (two ideal sources fighting
// over one node — the branch-current columns are linearly dependent)
// produces a typed error naming the offending unknown rather than a
// generic divergence. Note a merely floating node is NOT singular
// here: gmin leaks every node to ground.
func TestSingularSystemNamesUnknown(t *testing.T) {
	c := New()
	c.V("v1", "a", DC(1))
	c.V("v2", "a", DC(2))
	c.R("a", "0", 1000)
	_, err := c.OP()
	if err == nil {
		t.Fatal("expected singular-system error")
	}
	if cerr.CodeOf(err) != cerr.CodeSimSingular {
		t.Fatalf("code = %v, want CodeSimSingular (err %v)", cerr.CodeOf(err), err)
	}
	if !strings.Contains(err.Error(), "I(v") {
		t.Fatalf("error should name the offending unknown: %v", err)
	}
}
