package compiler

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bist"
	"repro/internal/leafcell"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/spice"
	"repro/internal/tech"
)

// PowerReport carries the compiler's power guarantees (the paper's
// flow extrapolates timing, area AND power from extracted leaf
// cells).
type PowerReport struct {
	// ReadEnergyPJ is the switched energy per read access (pJ):
	// decoder + wordline full swing plus the partial bitline swing of
	// the current-mode scheme across the word's columns.
	ReadEnergyPJ float64
	// DynamicMwAt100MHz is the corresponding dynamic power at a
	// 100 MHz access rate.
	DynamicMwAt100MHz float64
	// PLAStaticMw is the pseudo-NMOS TRPLA's static draw while the
	// self-test runs: one weak ratioed pull-up per product-term row
	// and per OR-plane column fights the NOR pull-downs whenever a
	// line is low. Normal-mode accesses never pay it (the PLA idles).
	PLAStaticMw float64
}

// TimingReport carries the compiler's extracted timing guarantees
// (nanoseconds). The read access path is decode -> wordline ->
// bitline -> sense; the TLB path is the parallel CAM match plus the
// spare-address issue, which Section VI argues is maskable inside the
// precharge/address-register phase.
type TimingReport struct {
	DecodeNs   float64
	WordlineNs float64
	BitlineNs  float64
	SenseNs    float64
	AccessNs   float64

	TLBNs       float64
	TLBMaskable bool
}

// The analysis memo. The two SPICE transients (decodeTransient,
// tlbTransient) read nothing but the deck, the buffer size and a few
// geometry counts, so a process-wide memo serves every compile that
// repeats a circuit: a sweep over words or defect density repeats
// both, and bisrbench's whole request space holds at most 324 decode
// and 972 TLB circuits. The keys are lossless — the library
// Fingerprint (the deck's canonical digest plus the buffer size) and
// the integer counts each circuit reads — and hold every input of the
// circuit, so a hit is bit-identical to a fresh simulation
// (TestAnalysisMemoLossless). A transient cut short by a deadline or
// failed by a chaos rule returns an error, and the memo stores
// successes only.
const analysisMemoCap = 4096

// decodeKey holds every input of the decode inverter transient: the
// deck and buffer size (via the library) and the row count, which
// fixes the predecode fan-out and the decoder load.
type decodeKey struct {
	lib  leafcell.Fingerprint
	rows int
}

// tlbKey holds every input of the TLB match-line transient: the deck,
// the buffer size and the CAM cell (via the library), the match-line
// width and the spare count that loads the issue bus.
type tlbKey struct {
	lib          leafcell.Fingerprint
	bits, spares int
}

// inverterEdges is the decode transient's measurement (seconds).
type inverterEdges struct{ rise, fall float64 }

var (
	decodeMemo = memo.New[decodeKey, inverterEdges]("timing.access", analysisMemoCap)
	tlbMemo    = memo.New[tlbKey, float64]("timing.tlb", analysisMemoCap)
)

// memoAttr marks an analysis span with how its transient was served.
// A hit records no spice.transient span beneath it.
func memoAttr(hit bool) obs.Attr {
	if hit {
		return obs.String("memo", "hit")
	}
	return obs.String("memo", "miss")
}

// transients holds the two analysis transients' measurements: the
// decode inverter's edges and the TLB match delay (ns). The transients
// read only the library and Params, so the compile runs them beside its
// layout stages; computeTiming reads them once every branch has joined.
type transients struct {
	decode inverterEdges
	tlbNs  float64
}

// gateCap is the representative NMOS gate capacitance of a device
// wLambda lambdas wide.
func gateCap(proc *tech.Process, wLambda int) float64 {
	return proc.MOS(tech.NMOS).CgsPerW * float64(proc.L(wLambda)) * 1e-9
}

// decodeTransient measures the access path's decode stage — a 2-stage
// buffer driving the row-decoder NAND bank — with a transient on the
// sized inverter, or serves it from the memo, under a "timing.access"
// span.
func (d *Design) decodeTransient(ctx context.Context) (edges inverterEdges, err error) {
	p := d.Params
	proc := p.Process
	ctx, end := obs.Start(ctx, "timing.access")
	var hit bool
	defer func() { end(memoAttr(hit)) }()
	lm := float64(proc.Feature) * 1e-9
	predecode := 1 << uint(p.RowAddrBits()/2)
	decLoad := float64(p.Rows()) * gateCap(proc, 4) / float64(predecode)
	wn := float64(proc.L(3*p.BufSize)) * 1e-9
	wp := wn * proc.BetaRatio()
	edges, hit, err = decodeMemo.Do(decodeKey{lib: d.Lib.Fingerprint(), rows: p.Rows()},
		func() (inverterEdges, error) {
			rise, fall, err := spice.InverterDelaysCtx(ctx, proc, wn, wp, lm, decLoad+20e-15)
			return inverterEdges{rise: rise, fall: fall}, err
		})
	if err != nil {
		return edges, fmt.Errorf("decode timing: %w", err)
	}
	return edges, nil
}

// tlbTransient measures the TLB match-line discharge, or serves it from
// the memo, under a "timing.tlb" span.
func (d *Design) tlbTransient(ctx context.Context) (ns float64, err error) {
	p := d.Params
	ctx, end := obs.Start(ctx, "timing.tlb")
	var hit bool
	defer func() { end(memoAttr(hit)) }()
	key := tlbKey{lib: d.Lib.Fingerprint(), bits: p.RowAddrBits(), spares: p.Spares}
	ns, hit, err = tlbMemo.Do(key, func() (float64, error) { return d.tlbMatchDelay(ctx) })
	if err != nil {
		return 0, fmt.Errorf("tlb timing: %w", err)
	}
	return ns, nil
}

// computeTiming extracts the critical paths from the transients'
// measurements plus Elmore wire models (wordline and bitline are
// strapped in metal2 per the array template), and the power report. It
// reads the array macro, so it runs after the layout stages.
func (d *Design) computeTiming(tr transients) {
	p := d.Params
	proc := p.Process
	lm := float64(proc.Feature) * 1e-9
	nmos := proc.MOS(tech.NMOS)

	// --- Decode: NAND + two buffer stages.
	stageNs := math.Max(tr.decode.rise, tr.decode.fall) * 1e9
	d.Timing.DecodeNs = 3 * stageNs

	// --- Wordline: driver resistance into the strapped wire RC plus
	// one pass-gate load per column.
	arrW := float64(d.Macros["array"].Bounds().W()) * 1e-9 // metres
	m2 := proc.Wire[tech.Metal2]
	wlWidth := float64(proc.MinWidth(tech.Metal2)) * 1e-9
	rw, cwire := spice.WireRC(arrW, wlWidth, m2.RSheet, m2.CArea, m2.CEdge)
	cols := float64(p.BPW * p.BPC)
	cload := cwire + cols*gateCap(proc, 3)
	rdrv := driverResistance(proc, proc.L(3*p.BufSize))
	d.Timing.WordlineNs = 0.69 * (rdrv*cload + rw*cwire/2 + rw*cols*gateCap(proc, 3)/2) * 1e9

	// --- Bitline: current-mode sensing; the cell's read current
	// discharges the bitline until the sense differential is reached.
	arrH := float64(d.Macros["array"].Bounds().H()) * 1e-9
	_, cbl := spice.WireRC(arrH, wlWidth, m2.RSheet, m2.CArea, m2.CEdge)
	rowsTotal := float64(p.Rows() + p.Spares)
	cbl += rowsTotal * nmos.CjPerW * float64(proc.L(3)) * 1e-9 // drain junctions
	icell := cellReadCurrent(proc)
	dvSense := 0.08 * proc.VDD // current-mode: small differential suffices
	d.Timing.BitlineNs = cbl * dvSense / icell * 1e9

	// --- Sense amplifier: regeneration of the extracted cross-coupled
	// pair, approximated as 3 gm/C time constants of the sensing pair.
	wcc := float64(proc.L(6)) * 1e-9
	gm := nmos.KP * wcc / lm * (proc.VDD/2 - nmos.VT0)
	csense := 2 * nmos.CgsPerW * wcc
	if gm > 0 {
		d.Timing.SenseNs = 3 * csense / gm * 1e9
	}
	d.Timing.AccessNs = d.Timing.DecodeNs + d.Timing.WordlineNs +
		d.Timing.BitlineNs + d.Timing.SenseNs

	// --- Power: per-access switched energy from the extracted wire
	// and device capacitances, plus the TRPLA's pseudo-NMOS static
	// draw.
	{
		eWL := (cwire + cols*gateCap(proc, 3)) * proc.VDD * proc.VDD
		arrH := float64(d.Macros["array"].Bounds().H()) * 1e-9
		_, cblw := spice.WireRC(arrH, wlWidth, m2.RSheet, m2.CArea, m2.CEdge)
		cblTot := cblw + float64(p.Rows()+p.Spares)*nmos.CjPerW*float64(proc.L(3))*1e-9
		// Current-mode sensing swings the bitline only ~8% of VDD,
		// but every column on the selected row discharges.
		eBL := cols * cblTot * (0.08 * proc.VDD) * proc.VDD
		eDec := float64(p.Rows()) * gateCap(proc, 4) * proc.VDD * proc.VDD / 4
		d.Power.ReadEnergyPJ = (eWL + eBL + eDec) * 1e12
		d.Power.DynamicMwAt100MHz = (eWL + eBL + eDec) * 100e6 * 1e3
		// PLA static: roughly half the term/output lines sit low,
		// each burning the ratioed pull-up current. The pull-ups are
		// weak long-channel devices (4x drawn length), and the PLA is
		// active only while the self-test runs — normal-mode accesses
		// never pay this power.
		wpu := float64(proc.L(4)) * 1e-9
		lpu := 4 * lm
		pmos := proc.MOS(tech.PMOS)
		ipu := 0.5 * pmos.KP * wpu / lpu * (proc.VDD + pmos.VT0) * (proc.VDD + pmos.VT0)
		lines := float64(len(d.Prog.Terms)) + float64(bist.NumSigs+d.Prog.StateBits)
		d.Power.PLAStaticMw = 0.5 * lines * ipu * proc.VDD * 1e3
	}

	if p.Spares > 0 {
		d.Timing.TLBNs = tr.tlbNs
		// Maskable when it fits inside the precharge/address phase
		// (roughly half the access), the criterion behind the paper's
		// "1-4 spares keep the TLB fast" guidance.
		d.Timing.TLBMaskable = tr.tlbNs < d.Timing.AccessNs/2
	}
}

// tlbMatchDelay builds the match-line circuit from the CAM leaf cell
// and simulates the worst-case discharge: the line is precharged high
// and a single bit mismatch must pull it low through the series
// compare stack, after which the match inverter switches.
func (d *Design) tlbMatchDelay(ctx context.Context) (float64, error) {
	p := d.Params
	proc := p.Process
	lm := float64(proc.Feature) * 1e-9
	bits := p.RowAddrBits()

	ckt := spice.New()
	ckt.V("vdd", "vdd", spice.DC(proc.VDD))
	// Match line capacitance: per-bit wire segment plus the compare
	// stack drain junction, times the address width.
	camCaps := d.Lib.CAM.WireCaps()
	cml := camCaps["ml"] * float64(bits)
	nmos := proc.MOS(tech.NMOS)
	cml += float64(bits) * nmos.CjPerW * float64(proc.L(4)) * 1e-9
	ckt.C("ml", "0", cml)
	// Precharge device (weak PMOS keeper, off during evaluate).
	// Initial condition via a pulse source: ml starts at VDD through a
	// large resistor, then the stack discharges.
	ckt.R("vdd", "ml", 1e6)
	// The mismatch stack: two series NMOS sized as in the CAM cell.
	wx := float64(proc.L(4)) * 1e-9
	ckt.M("mx1", "ml", "q", "x1", tech.NMOS, wx, lm, proc)
	ckt.M("mx2", "x1", "sl", "0", tech.NMOS, wx, lm, proc)
	ckt.V("vq", "q", spice.DC(proc.VDD))
	ckt.V("vsl", "sl", spice.Step(0, proc.VDD, 1e-9, 50e-12))
	// Match buffer inverter (from the TLB row) driving the shared
	// spare-address issue bus. Every TLB entry hangs a tristate
	// driver on that bus, so its capacitance — and hence the issue
	// delay — grows with the spare count. This is why the paper
	// guarantees maskability only for 1-4 spares.
	wn := float64(proc.L(3*p.BufSize)) * 1e-9
	ckt.M("mbn", "mlb", "ml", "0", tech.NMOS, wn, lm, proc)
	ckt.M("mbp", "mlb", "ml", "vdd", tech.PMOS, wn*proc.BetaRatio(), lm, proc)
	busLoad := 10e-15 + float64(p.Spares)*
		(2*nmos.CjPerW*float64(proc.L(3*p.BufSize))*1e-9+5e-15)
	ckt.C("mlb", "0", busLoad)

	res, err := ckt.TransientCtx(ctx, 8e-9, 5e-12)
	if err != nil {
		return 0, err
	}
	t0 := 1e-9
	tEdge, err := res.CrossTime("mlb", proc.VDD/2, true, t0)
	if err != nil {
		return 0, err
	}
	return (tEdge - t0) * 1e9, nil
}

// driverResistance estimates the on-resistance of an NMOS of drawn
// width w dbu at VDD drive.
func driverResistance(p *tech.Process, wDbu int) float64 {
	n := p.MOS(tech.NMOS)
	w := float64(wDbu) * 1e-9
	l := float64(p.Feature) * 1e-9
	idsat := 0.5 * n.KP * w / l * (p.VDD - n.VT0) * (p.VDD - n.VT0)
	if idsat <= 0 {
		return math.Inf(1)
	}
	return p.VDD / idsat
}

// cellReadCurrent estimates the 6T cell read current through the
// series pass gate and pull-down.
func cellReadCurrent(p *tech.Process) float64 {
	n := p.MOS(tech.NMOS)
	w := float64(p.L(3)) * 1e-9
	l := float64(p.Feature) * 1e-9
	// Degraded by the series stack and body effect: ~0.4x of a single
	// saturated device.
	return 0.4 * 0.5 * n.KP * w / l * (p.VDD - n.VT0) * (p.VDD - n.VT0)
}
