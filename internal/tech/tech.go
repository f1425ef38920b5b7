// Package tech is BISRAMGEN's process technology database. It carries
// the layer set, lambda-based design rules, interconnect parasitics and
// level-1 MOS device parameters that make the layout generators
// design-rule independent: all geometry is computed from the numbers
// here, never hard-coded.
//
// Three synthetic 3-metal single-poly processes are built in, mirroring
// the processes named in the paper (Cascade Design Automation 0.5 µm
// and 0.7 µm, and the MOSIS 0.6 µm HP process). The numeric values are
// period-plausible reconstructions; the real decks are proprietary, and
// every downstream result depends only on the parameterisation, not on
// the exact values (see DESIGN.md, substitutions).
package tech

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cerr"
	"repro/internal/geom"
)

// Layer identifiers. These intentionally match geom.Layer values used
// by generators.
const (
	NWell geom.Layer = iota
	Active
	Poly
	NPlus
	PPlus
	Contact
	Metal1
	Via1
	Metal2
	Via2
	Metal3
	NumLayers
)

// LayerName returns the canonical name of a layer.
func LayerName(l geom.Layer) string {
	names := [...]string{"nwell", "active", "poly", "nplus", "pplus",
		"contact", "metal1", "via1", "metal2", "via2", "metal3"}
	if int(l) < 0 || int(l) >= len(names) {
		return fmt.Sprintf("layer%d", int(l))
	}
	return names[l]
}

// RoutingLayers lists the layers the routers may use, lowest first.
var RoutingLayers = []geom.Layer{Metal1, Metal2, Metal3}

// MOSType distinguishes device polarity.
type MOSType int

// Device polarities.
const (
	NMOS MOSType = iota
	PMOS
)

func (t MOSType) String() string {
	if t == NMOS {
		return "nmos"
	}
	return "pmos"
}

// MOSParams holds simplified level-1 (Shichman–Hodges) parameters plus
// the capacitances the timing model needs. Units: SI (V, A, F, m).
type MOSParams struct {
	VT0     float64 // zero-bias threshold voltage (V); negative for PMOS
	KP      float64 // transconductance µCox (A/V²)
	Lambda  float64 // channel-length modulation (1/V)
	CgsPerW float64 // gate capacitance per metre of width at drawn L (F/m)
	CjPerW  float64 // junction (drain/source) capacitance per metre of width (F/m)
}

// Interconnect carries per-layer parasitics.
type Interconnect struct {
	RSheet float64 // ohm/square
	CArea  float64 // F/m² to substrate
	CEdge  float64 // F/m fringing per edge
}

// Process is one technology deck.
type Process struct {
	Name    string
	Lambda  int     // half of drawn feature size, in dbu (nm)
	Feature int     // drawn minimum gate length, in dbu (nm)
	Metals  int     // number of metal layers
	VDD     float64 // supply voltage

	Rules map[geom.Layer]geom.Rule // min width/spacing per layer
	// ContactSize is the drawn contact/via edge; ContactEnclosure the
	// required metal/active enclosure of a contact.
	ContactSize      int
	ContactEnclosure int
	// PolyExtension is the gate poly endcap past active.
	PolyExtension int

	Wire map[geom.Layer]Interconnect
	NMOS MOSParams
	PMOS MOSParams
}

// L returns n lambdas in dbu.
func (p *Process) L(n int) int { return n * p.Lambda }

// MinWidth returns the minimum drawn width for a layer.
func (p *Process) MinWidth(l geom.Layer) int { return p.Rules[l].MinWidth }

// Pitch returns width+spacing for a routing layer: the track pitch.
func (p *Process) Pitch(l geom.Layer) int {
	r := p.Rules[l]
	return r.MinWidth + r.MinSpacing
}

// MOS returns the device parameters for a polarity.
func (p *Process) MOS(t MOSType) MOSParams {
	if t == NMOS {
		return p.NMOS
	}
	return p.PMOS
}

// BetaRatio returns KPn/KPp — the width ratio a PMOS needs over an
// NMOS for equal drive, used by the rise/fall balancing utility.
func (p *Process) BetaRatio() float64 { return p.NMOS.KP / p.PMOS.KP }

// newProcess builds a deck from a feature size in nm using scalable
// lambda rules (MOSIS SCMOS-like ratios).
func newProcess(name string, featureNm int, vdd float64, kpN, kpP float64) *Process {
	lambda := featureNm / 2
	p := &Process{
		Name:    name,
		Lambda:  lambda,
		Feature: featureNm,
		Metals:  3,
		VDD:     vdd,
		Rules:   map[geom.Layer]geom.Rule{},
	}
	l := p.L
	p.Rules[NWell] = geom.Rule{MinWidth: l(10), MinSpacing: l(6)}
	p.Rules[Active] = geom.Rule{MinWidth: l(3), MinSpacing: l(3)}
	p.Rules[Poly] = geom.Rule{MinWidth: l(2), MinSpacing: l(2)}
	p.Rules[NPlus] = geom.Rule{MinWidth: l(4), MinSpacing: l(4)}
	p.Rules[PPlus] = geom.Rule{MinWidth: l(4), MinSpacing: l(4)}
	p.Rules[Contact] = geom.Rule{MinWidth: l(2), MinSpacing: l(2)}
	p.Rules[Metal1] = geom.Rule{MinWidth: l(3), MinSpacing: l(3)}
	p.Rules[Via1] = geom.Rule{MinWidth: l(2), MinSpacing: l(3)}
	p.Rules[Metal2] = geom.Rule{MinWidth: l(3), MinSpacing: l(4)}
	p.Rules[Via2] = geom.Rule{MinWidth: l(2), MinSpacing: l(3)}
	p.Rules[Metal3] = geom.Rule{MinWidth: l(5), MinSpacing: l(5)}
	p.ContactSize = l(2)
	p.ContactEnclosure = l(1)
	p.PolyExtension = l(2)

	p.Wire = map[geom.Layer]Interconnect{
		Poly:   {RSheet: 25, CArea: 6.0e-5, CEdge: 3.0e-11},
		Metal1: {RSheet: 0.08, CArea: 3.0e-5, CEdge: 4.0e-11},
		Metal2: {RSheet: 0.07, CArea: 2.0e-5, CEdge: 3.5e-11},
		Metal3: {RSheet: 0.05, CArea: 1.5e-5, CEdge: 3.0e-11},
	}
	// Gate capacitance ~ Cox*L per unit width; Cox ≈ 2.5 fF/µm² scaled
	// by feature. Junction cap per width dominated by contacted
	// diffusion of ~5λ extent.
	lm := float64(featureNm) * 1e-9 // gate length in metres
	cox := 2.5e-3                   // F/m² nominal oxide cap for ~0.5 µm era
	p.NMOS = MOSParams{
		VT0: 0.7, KP: kpN, Lambda: 0.05,
		CgsPerW: cox * lm, CjPerW: 0.6 * cox * lm * 2.5,
	}
	p.PMOS = MOSParams{
		VT0: -0.8, KP: kpP, Lambda: 0.06,
		CgsPerW: cox * lm, CjPerW: 0.6 * cox * lm * 2.5,
	}
	return p
}

// processes is the ByName registry. procMu makes lookup and
// registration safe from concurrent server goroutines; the built-in
// decks register during package init, before any concurrency exists.
var (
	procMu    sync.RWMutex
	processes = map[string]*Process{}
)

func register(p *Process) *Process {
	procMu.Lock()
	defer procMu.Unlock()
	processes[p.Name] = p
	return p
}

// The three built-in decks. Names follow the paper's conventions
// (vendor, feature, metals, poly count).
var (
	// CDA05 models the Cascade Design Automation 0.5 µm 3-metal
	// 1-poly process ("CDA.53m1p").
	CDA05 = register(newProcess("cda05u3m1p", 500, 3.3, 110e-6, 38e-6))
	// MOS06 models the MOSIS HP 0.6 µm process ("mos.63m1pHP").
	MOS06 = register(newProcess("mos06u3m1pHP", 600, 3.3, 100e-6, 35e-6))
	// CDA07 models the Cascade Design Automation 0.7 µm process
	// ("CDA.73m1p"), the deck used for the paper's Table I.
	CDA07 = register(newProcess("cda07u3m1p", 700, 5.0, 90e-6, 30e-6))
)

// Corner derives a process-corner variant of a deck: "slow" degrades
// both carrier mobilities by 20% and raises threshold magnitudes by
// 10%; "fast" does the opposite; "typ" returns the deck unchanged.
// Timing guarantees are extrapolated at the slow corner, as any
// 1990s sign-off flow would.
func (p *Process) Corner(name string) (*Process, error) {
	var kp, vt float64
	switch name {
	case "typ":
		return p, nil
	case "slow":
		kp, vt = 0.8, 1.1
	case "fast":
		kp, vt = 1.2, 0.9
	default:
		return nil, cerr.New(cerr.CodeInvalidParams, "tech: unknown corner %q (typ, slow, fast)", name)
	}
	q := *p
	q.Name = p.Name + "." + name
	q.NMOS.KP *= kp
	q.PMOS.KP *= kp
	q.NMOS.VT0 *= vt
	q.PMOS.VT0 *= vt
	return &q, nil
}

// ByName looks up a built-in process deck. Safe for concurrent use.
func ByName(name string) (*Process, error) {
	procMu.RLock()
	p, ok := processes[name]
	procMu.RUnlock()
	if !ok {
		return nil, cerr.New(cerr.CodeInvalidParams, "tech: unknown process %q (have %v)", name, Names())
	}
	return p, nil
}

// Names lists the registered process names, sorted. Safe for
// concurrent use.
func Names() []string {
	procMu.RLock()
	out := make([]string, 0, len(processes))
	for n := range processes {
		out = append(out, n)
	}
	procMu.RUnlock()
	sort.Strings(out)
	return out
}

// Validate performs internal consistency checks on a deck; generators
// call it once before building a library. Failures are typed
// cerr.ErrDeckParse, since an invalid deck is a deck problem whether it
// arrived from a file or was constructed in code.
func (p *Process) Validate() error {
	deckErr := func(format string, args ...any) error {
		return cerr.New(cerr.CodeDeckParse, format, args...)
	}
	if p.Lambda <= 0 || p.Feature != 2*p.Lambda {
		return deckErr("tech %s: feature %d must be 2×lambda %d", p.Name, p.Feature, p.Lambda)
	}
	if p.Feature > maxFeatureNm {
		return deckErr("tech %s: feature %d nm beyond supported %d nm", p.Name, p.Feature, maxFeatureNm)
	}
	if p.Metals < 3 || p.Metals > maxMetals {
		return deckErr("tech %s: BISRAMGEN requires 3..%d metal layers, have %d", p.Name, maxMetals, p.Metals)
	}
	// Non-finite or absurd electrical parameters poison every downstream
	// timing/power integral; reject them at the boundary.
	finite := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return deckErr("tech %s: %s is not finite (%v)", p.Name, name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"vdd", p.VDD},
		{"kp_n", p.NMOS.KP}, {"kp_p", p.PMOS.KP},
		{"vt_n", p.NMOS.VT0}, {"vt_p", p.PMOS.VT0},
		{"cgs_n", p.NMOS.CgsPerW}, {"cgs_p", p.PMOS.CgsPerW},
		{"cj_n", p.NMOS.CjPerW}, {"cj_p", p.PMOS.CjPerW},
	} {
		if err := finite(f.name, f.v); err != nil {
			return err
		}
	}
	if p.VDD <= 0 || p.VDD > maxVDD {
		return deckErr("tech %s: VDD %g outside (0, %g]", p.Name, p.VDD, maxVDD)
	}
	if p.NMOS.KP <= 0 || p.PMOS.KP <= 0 {
		return deckErr("tech %s: non-positive transconductance", p.Name)
	}
	for _, l := range []geom.Layer{Active, Poly, Contact, Metal1, Metal2, Metal3} {
		r, ok := p.Rules[l]
		if !ok || r.MinWidth <= 0 || r.MinSpacing <= 0 {
			return deckErr("tech %s: missing rule for %s", p.Name, LayerName(l))
		}
	}
	if p.NMOS.KP <= p.PMOS.KP {
		return deckErr("tech %s: expected NMOS KP > PMOS KP", p.Name)
	}
	if p.VDD <= p.NMOS.VT0-p.PMOS.VT0 {
		return deckErr("tech %s: VDD %.2f too small for thresholds", p.Name, p.VDD)
	}
	return nil
}

// Envelope limits for user-supplied deck values. The paper's lineage
// targets 0.5-0.7 µm CMOS; anything past these bounds is a corrupt
// deck, not a plausible technology.
const (
	maxFeatureNm = 20000 // 20 µm
	maxMetals    = 16
	maxVDD       = 100.0
)
