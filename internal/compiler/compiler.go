// Package compiler is BISRAMGEN itself: from user circuit parameters
// and a CMOS process it builds the leaf-cell library, assembles the
// macrocells (the RAM array with spare rows, row and column decoders,
// sense amplifiers and write drivers, DATAGEN, ADDGEN, the TLB, the
// TRPLA and the state register), floorplans them with the
// port-alignment place-and-route, and emits the layout together with
// area/timing reports, the PLA control program, a datasheet, and a
// behavioural simulation model.
package compiler

import (
	"context"
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/bisr"
	"repro/internal/bist"
	"repro/internal/cerr"
	"repro/internal/chaos"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/leafcell"
	"repro/internal/march"
	"repro/internal/obs"
	"repro/internal/sram"
	"repro/internal/tech"
)

// Params are the user inputs of Fig. 1: word count, word width,
// column-multiplex ratio, spare rows, critical-gate sizing, strap
// spacing and the process.
type Params struct {
	Words      int
	BPW        int
	BPC        int
	Spares     int // 4, 8 or 16 per the paper (0 disables BISR)
	BufSize    int // critical gate size multiplier (>= 1)
	StrapCells int // cells between straps; 0 disables strapping
	Process    *tech.Process
	// Test is the march algorithm microprogrammed into the TRPLA;
	// zero value selects IFA-9.
	Test march.Test
	// Program, when non-nil, supplies the TRPLA control code directly
	// — e.g. loaded from AND/OR plane files with bist.ReadPlanes — and
	// takes precedence over Test. This is the paper's runtime
	// control-code loading path: editing the plane files swaps the
	// test algorithm without regenerating the tool.
	Program *bist.Program
	// RefineIterations, when positive, runs the simulated-annealing
	// floorplan refiner for that many moves after the constructive
	// place-and-route. The budget is split over refineStarts
	// independent deterministic annealing starts; the winner is picked
	// by (cost, seed), so the result is a pure function of the budget.
	RefineIterations int
	// Parallelism bounds how many goroutines each fan-out of the
	// compile may use (cerr.Parallel): the analysis transients (decode
	// inverter, TLB match) run beside the layout stages, the macro
	// builders run side by side, and so do the floorplan's annealing
	// starts. 0 or 1 means fully serial. Parallelism is an execution
	// knob only — the output bytes are identical for every value,
	// which is why the canonical compile key (internal/canon)
	// deliberately excludes it: a parallel compile must hit the cache
	// entry a serial compile wrote, and vice versa.
	Parallelism int
}

// maxParallelism caps the concurrency knob so an adversarial request
// cannot demand an absurd goroutine fan-out.
const maxParallelism = 256

// refineStarts is the fixed multi-start fan-out of the floorplan
// refiner. It is a constant — never derived from Parallelism — so the
// start/seed/budget structure, and therefore the winning floorplan,
// depends only on Params; Parallelism merely bounds how many starts
// run at once.
const refineStarts = 4

// par returns the effective concurrency bound (>= 1).
func (p Params) par() int {
	if p.Parallelism < 1 {
		return 1
	}
	return p.Parallelism
}

// Parameter envelope caps. They bound the resources a single compile
// may demand: well beyond the paper's largest arrays, but small enough
// that an absurd request (found by the fault campaign: 2^62 words
// passed the old divisibility checks) is rejected in Validate instead
// of wedging the macro generators.
const (
	maxWords = 1 << 24 // 16M words
	maxBPW   = 1024
	maxBPC   = 256
)

// Validate checks the parameter envelope. Every rejection is a typed
// cerr.ErrInvalidParams (process-deck problems keep their own
// classification), so callers and the fault campaign can assert on the
// code rather than on message text.
func (p Params) Validate() error {
	if p.Process == nil {
		return cerr.New(cerr.CodeInvalidParams, "compiler: no process selected")
	}
	if err := p.Process.Validate(); err != nil {
		return cerr.Wrap(cerr.CodeInvalidParams, err, "compiler: process %q rejected", p.Process.Name)
	}
	if p.Words <= 0 || p.BPW <= 0 || p.BPC <= 0 {
		return cerr.New(cerr.CodeInvalidParams,
			"compiler: non-positive geometry words=%d bpw=%d bpc=%d", p.Words, p.BPW, p.BPC)
	}
	if p.Words > maxWords || p.BPW > maxBPW || p.BPC > maxBPC {
		return cerr.New(cerr.CodeInvalidParams,
			"compiler: geometry words=%d bpw=%d bpc=%d exceeds envelope (%d, %d, %d)",
			p.Words, p.BPW, p.BPC, maxWords, maxBPW, maxBPC)
	}
	if p.BPC&(p.BPC-1) != 0 {
		return cerr.New(cerr.CodeInvalidParams, "compiler: bpc %d must be a power of 2", p.BPC)
	}
	if p.Words%p.BPC != 0 {
		return cerr.New(cerr.CodeInvalidParams, "compiler: words %d not divisible by bpc %d", p.Words, p.BPC)
	}
	if p.Words&(p.Words-1) != 0 {
		return cerr.New(cerr.CodeInvalidParams, "compiler: words %d must be a power of 2", p.Words)
	}
	switch p.Spares {
	case 0, 4, 8, 16:
	default:
		return cerr.New(cerr.CodeInvalidParams, "compiler: spare rows must be 0, 4, 8 or 16 (got %d)", p.Spares)
	}
	if p.BufSize < 1 || p.BufSize > 4 {
		return cerr.New(cerr.CodeInvalidParams, "compiler: buffer size %d out of range 1..4", p.BufSize)
	}
	if p.StrapCells < 0 {
		return cerr.New(cerr.CodeInvalidParams, "compiler: negative strap spacing %d", p.StrapCells)
	}
	if p.Rows() < 2 {
		return cerr.New(cerr.CodeInvalidParams, "compiler: fewer than 2 rows (words %d / bpc %d)", p.Words, p.BPC)
	}
	if p.Spares > p.Rows() {
		return cerr.New(cerr.CodeInvalidParams,
			"compiler: %d spare rows exceed the %d regular rows they would repair", p.Spares, p.Rows())
	}
	if p.RefineIterations < 0 {
		return cerr.New(cerr.CodeInvalidParams, "compiler: negative refine budget %d", p.RefineIterations)
	}
	if p.Parallelism < 0 || p.Parallelism > maxParallelism {
		return cerr.New(cerr.CodeInvalidParams,
			"compiler: parallelism %d out of range 0..%d", p.Parallelism, maxParallelism)
	}
	return nil
}

// Rows returns the regular row count words/bpc.
func (p Params) Rows() int { return p.Words / p.BPC }

// RowAddrBits returns the row address width.
func (p Params) RowAddrBits() int { return bits.Len(uint(p.Rows() - 1)) }

// ColAddrBits returns the column-select address width log2(bpc).
func (p Params) ColAddrBits() int { return bits.Len(uint(p.BPC - 1)) }

// Bits returns the regular capacity in bits.
func (p Params) Bits() int { return p.Words * p.BPW }

// AreaReport decomposes the silicon area (µm²).
type AreaReport struct {
	ArrayRegular float64 // regular rows
	ArraySpare   float64 // spare rows
	RowDecoder   float64
	ColPeriphery float64 // precharge, column mux, sense, write, column decoder
	BIST         float64 // TRPLA + ADDGEN + DATAGEN + STREG
	BISR         float64 // TLB + spare drivers + output tristates
	Total        float64 // floorplan bounding box

	// OverheadPct is (BIST+BISR)/(everything else) in percent — the
	// paper's Table I metric (redundant rows excluded from the
	// overhead, as argued in Section IX).
	OverheadPct float64
	// GrowthFactor is Total / (Total - spare - BIST - BISR), the
	// yield model's defect-scaling factor.
	GrowthFactor float64
}

// Design is the compiler output.
type Design struct {
	Params Params
	// Name is the macro name ("bisram_<words>x<bpw>"); unlike Top it is
	// always set, even when the degradation ladder bottomed out without
	// a layout.
	Name   string
	Lib    *leafcell.Library
	Macros map[string]*geom.Cell
	// Plan and Top are nil when the compile degraded to an
	// area-estimate-only datasheet (see Degradations).
	Plan   *floorplan.Result
	Top    *geom.Cell
	Prog   *bist.Program
	Area   AreaReport
	Timing TimingReport
	Power  PowerReport
	// Degradations records each rung of the degradation ladder the
	// compile descended to stay alive: the stacked fallback placement,
	// a refine budget that expired, or the area-estimate-only
	// datasheet. Empty means the full flow succeeded.
	Degradations []string
}

// degrade records a degradation-ladder step.
func (d *Design) degrade(format string, args ...any) {
	d.Degradations = append(d.Degradations, fmt.Sprintf(format, args...))
}

// Compile runs the full flow. Every stage executes behind a
// recover-to-typed-error guard (cerr.Recover), so even a generator
// panic at one of the documented invariant sites surfaces to the
// caller as a cerr.ErrInternal with stage attribution rather than
// crashing the process. Floorplanning follows a degradation ladder —
// abutment placer, then the stacked fallback placer, then an
// area-estimate-only datasheet — with every fallback recorded in
// Design.Degradations and in the report. Compile is CompileCtx with a
// background context.
func Compile(p Params) (*Design, error) {
	return CompileCtx(context.Background(), p)
}

// CompileCtx is Compile under a context deadline — the entry point a
// serving process uses to give every job a hard budget. The context is
// checked at each stage boundary and threaded into the context-bounded
// kernels (the floorplan refiner); expiry surfaces as a typed
// cerr.ErrBudgetExceeded with the stage that was about to run, except
// inside the refiner where the degradation ladder keeps the
// best-so-far placement and records the budget stop instead of
// failing the compile.
//
// When the context carries an obs.Trace, every stage — params,
// leafcells, microcode, macros, floorplan, analysis — records a span,
// and the context-bounded kernels underneath nest their own spans:
// floorplan.RefineMultiCtx's under compile.floorplan, and the two
// analysis transients' timing.access and timing.tlb (with their
// spice.transient spans) directly under compile, because they start
// before the macros. compile.analysis opens when the floorplan ends and
// covers the wait for the transients plus the timing, power and area
// formulas. An untraced context pays one context lookup per stage.
//
// Concurrency: when p.Parallelism > 1, three stage groups fan out
// through cerr.Parallel, each bounded by p.Parallelism: the analysis
// transients beside the layout stages (macros, then floorplan), the
// macro builders, and the floorplan's annealing starts. Leaf
// cells and microcode run one after the other: together they cost tens
// of microseconds, too little for a goroutine to pay for. Every
// concurrent branch runs behind its own cerr.Recover guard (panics
// cannot cross goroutines), every branch has joined before CompileCtx
// returns, errors are surfaced in fixed pipeline order (layout, then
// access path, then TLB) regardless of which goroutine finished first,
// and the output is byte-identical to a serial compile — see
// TestCompileParallelDeterminism. At Parallelism 1 the stages run in
// pipeline order: macros, floorplan, the two transients, then the
// formulas. The compile span records parallelism and parallel_stages
// attrs so the serving layer can count concurrent compiles.
func CompileCtx(ctx context.Context, p Params) (*Design, error) {
	par := p.par()
	parallelStages := 0
	ctx, endCompile := obs.Start(ctx, "compile")
	defer func() {
		endCompile(obs.Int("parallelism", par), obs.Int("parallel_stages", parallelStages))
	}()

	if p.Test.Name == "" {
		p.Test = march.IFA9()
	}
	_, endParams := obs.Start(ctx, "compile.params")
	verr := p.Validate()
	endParams()
	if verr != nil {
		return nil, cerr.WithStage("params", verr)
	}
	inj := chaos.FromContext(ctx)
	checkpoint := func(stage string) error {
		if err := ctx.Err(); err != nil {
			return budgetErr(stage, err)
		}
		if inj != nil {
			// Scripted stage faults: delay rules inject latency spikes,
			// panic rules exercise the recover guards (inside the
			// fan-out the stage's own guard converts them to a typed
			// ERR_INTERNAL, before it the jobs layer's Recover does),
			// error rules fail the stage outright. Each analysis
			// transient checks in as stage "timing".
			if err := inj.Point(chaos.PointStagePrefix + stage); err != nil {
				return cerr.WithStage(stage, err)
			}
		}
		return nil
	}
	if err := checkpoint("leafcells"); err != nil {
		return nil, err
	}

	var lib *leafcell.Library
	err := func() (err error) {
		defer cerr.Recover("leafcells", &err)
		_, end := obs.Start(ctx, "compile.leafcells")
		defer end()
		lib, err = leafcell.Shared(p.Process, p.BufSize)
		return cerr.WithStage("leafcells", err)
	}()
	if err != nil {
		return nil, err
	}
	prog := p.Program
	if prog == nil {
		err = func() (err error) {
			defer cerr.Recover("microcode", &err)
			_, end := obs.Start(ctx, "compile.microcode")
			defer end()
			var aerr error
			prog, aerr = bist.Assemble(p.Test)
			return cerr.WithStage("microcode", aerr)
		}()
		if err != nil {
			return nil, err
		}
	}
	d := &Design{
		Params: p, Lib: lib, Prog: prog,
		Macros: map[string]*geom.Cell{},
		Name:   fmt.Sprintf("bisram_%dx%d", p.Words, p.BPW),
	}

	if err := checkpoint("macros"); err != nil {
		return nil, err
	}
	if par > 1 {
		parallelStages += 2 // layout ∥ transients, and the macro builders
		if p.RefineIterations > 1 {
			parallelStages++ // annealing starts fan out inside RefineMultiCtx
		}
	}

	// One fan-out: the layout stages (macros, then floorplan) on the
	// first branch, the analysis transients — which read only the
	// library and Params — on the others. Branches are listed in
	// pipeline order, so a layout error wins over a transient's, and at
	// Parallelism 1 the stages run in the serial order.
	var tr transients
	endAnalysis := func(...obs.Attr) {}
	layout := func() error {
		var macros []floorplan.Macro
		var nets []floorplan.Net
		err := func() (err error) {
			defer cerr.Recover("macros", &err)
			_, end := obs.Start(ctx, "compile.macros")
			defer end()
			macros, nets, err = d.buildMacros(par)
			return err
		}()
		if err != nil {
			return err
		}
		err = func() (err error) {
			defer cerr.Recover("floorplan", &err)
			if err := checkpoint("floorplan"); err != nil {
				return err
			}
			fpCtx, end := obs.Start(ctx, "compile.floorplan")
			ferr := d.floorplanLadder(fpCtx, macros, nets)
			end(obs.Int("degradations", len(d.Degradations)))
			return ferr
		}()
		if err != nil {
			return err
		}
		// compile.analysis opens as the layout ends, so the wait for
		// the transients counts towards it.
		return func() (err error) {
			defer cerr.Recover("analysis", &err)
			if err = checkpoint("analysis"); err == nil {
				_, endAnalysis = obs.Start(ctx, "compile.analysis")
			}
			return err
		}()
	}
	transient := func(run func() error) func() error {
		return func() error {
			if err := checkpoint("timing"); err != nil {
				return err
			}
			return cerr.WithStage("timing", run())
		}
	}
	tasks := []func() error{layout, transient(func() (err error) {
		tr.decode, err = d.decodeTransient(ctx)
		return err
	})}
	if p.Spares > 0 {
		tasks = append(tasks, transient(func() (err error) {
			tr.tlbNs, err = d.tlbTransient(ctx)
			return err
		}))
	}
	err = cerr.Parallel("timing", par, tasks...)
	if err == nil {
		err = func() (err error) {
			defer cerr.Recover("analysis", &err)
			d.computeArea()
			d.computeTiming(tr)
			return nil
		}()
	}
	endAnalysis()
	if err != nil {
		return nil, err
	}
	return d, nil
}

// budgetErr classifies a context expiry as the pipeline's typed
// budget violation, attributed to the stage that was about to run.
func budgetErr(stage string, cause error) error {
	return cerr.WithStage(stage,
		cerr.Wrap(cerr.CodeBudgetExceeded, cause, "compiler: compile budget exhausted before stage %q", stage))
}

// buildMacros elaborates every macrocell, one fan-out task per builder
// (at most par at once), fills d.Macros after the join, and assembles
// the floorplan macro and net lists. Each builder runs behind its own
// "macros" Recover guard because the leaf-cell generators' residual
// invariant panics (geom.MustPort, leafcell sanity) live beneath it.
func (d *Design) buildMacros(par int) ([]floorplan.Macro, []floorplan.Net, error) {
	p := d.Params
	type builder struct {
		name  string
		build func() *geom.Cell
	}
	builders := []builder{
		{"array", d.buildArray},
		{"rowdec", d.buildRowDecoder},
		{"colper", d.buildColPeriphery},
		{"datagen", d.buildDataGen},
		{"addgen", d.buildAddGen},
		{"streg", d.buildStReg},
		{"trpla", d.buildTRPLA},
	}
	if p.Spares > 0 {
		builders = append(builders, builder{"tlb", d.buildTLB})
	}
	macros := make([]floorplan.Macro, len(builders))
	tasks := make([]func() error, len(builders))
	for i, b := range builders {
		tasks[i] = func() error {
			macros[i] = floorplan.Macro{Name: b.name, Cell: b.build()}
			return nil
		}
	}
	if err := cerr.Parallel("macros", par, tasks...); err != nil {
		return nil, nil, err
	}
	for _, m := range macros {
		d.Macros[m.Name] = m.Cell
	}

	nets := []floorplan.Net{
		{Name: "wl_bus", Pins: []floorplan.Pin{{Macro: "rowdec", Port: "wl_edge"}, {Macro: "array", Port: "wl_edge"}}},
		{Name: "bl_bus", Pins: []floorplan.Pin{{Macro: "array", Port: "bl_edge"}, {Macro: "colper", Port: "bl_edge"}}},
		{Name: "dbus", Pins: []floorplan.Pin{{Macro: "colper", Port: "dout"}, {Macro: "datagen", Port: "dcmp"}}},
		{Name: "addr", Pins: []floorplan.Pin{{Macro: "addgen", Port: "abus"}, {Macro: "rowdec", Port: "abus"}}},
		{Name: "ctl", Pins: []floorplan.Pin{{Macro: "trpla", Port: "ctl"}, {Macro: "streg", Port: "ctl"}}},
	}
	if p.Spares > 0 {
		nets = append(nets, floorplan.Net{Name: "spare_wl", Pins: []floorplan.Pin{
			{Macro: "tlb", Port: "spare_wl"}, {Macro: "array", Port: "wl_edge"}}})
		nets = append(nets, floorplan.Net{Name: "addr_tlb", Pins: []floorplan.Pin{
			{Macro: "addgen", Port: "abus"}, {Macro: "tlb", Port: "abus"}}})
	}
	return macros, nets, nil
}

// floorplanLadder descends the degradation ladder:
//
//  1. the abutment placer with port alignment and stretching;
//  2. on failure, the stacked fallback placer (legal but loose);
//  3. on failure again, no layout at all — the datasheet is produced
//     from macro bounding-box areas only (Plan and Top stay nil).
//
// A refine budget that expires keeps the best-so-far placement. Each
// fallback taken is recorded in d.Degradations; only rung 3 leaves the
// design without geometry, and even that returns nil error so the
// caller still gets a report. The context bounds the annealing
// refiner (floorplan.RefineMultiCtx); an expiry there is a
// degradation, not a failure.
//
// The refine budget fans out over refineStarts deterministic
// annealing starts (seeds 1..refineStarts, budget split evenly); the
// winner is chosen by (cost, seed), so the placement is a pure
// function of Params — p.Parallelism only bounds how many starts run
// concurrently.
func (d *Design) floorplanLadder(ctx context.Context, macros []floorplan.Macro, nets []floorplan.Net) error {
	p := d.Params
	plan, err := floorplan.Place(p.Process, macros, nets)
	if err != nil {
		var serr error
		plan, serr = floorplan.Stack(p.Process, macros, nets)
		if serr != nil {
			d.degrade("floorplan unavailable (place: %v; stack: %v): datasheet is area-estimate-only", err, serr)
			return nil
		}
		d.degrade("abutment floorplan failed (%v): using stacked fallback placement", err)
	}
	if p.RefineIterations > 0 {
		refined, rerr := floorplan.RefineMultiCtx(ctx, p.Process, macros, nets, plan,
			p.RefineIterations, 1, refineStarts, p.par())
		switch {
		case cerr.CodeOf(rerr) == cerr.CodeInternal:
			return rerr // a start panicked: an invariant broke, not a budget
		case rerr != nil && refined != nil:
			d.degrade("floorplan refinement stopped early (%v): keeping best-so-far placement", rerr)
			plan = refined
		case rerr != nil:
			d.degrade("floorplan refinement failed (%v): keeping constructive placement", rerr)
		default:
			plan = refined
		}
	}
	d.Plan = plan
	d.Top = plan.Top
	d.Top.Name = d.Name
	return nil
}

// um2 converts a cell bounding-box to µm².
func um2(c *geom.Cell) float64 { return float64(c.Bounds().Area()) / 1e6 }

func (d *Design) computeArea() {
	p := d.Params
	a := &d.Area
	arr := d.Macros["array"]
	rowFrac := float64(p.Rows()) / float64(p.Rows()+p.Spares)
	a.ArrayRegular = um2(arr) * rowFrac
	a.ArraySpare = um2(arr) - a.ArrayRegular
	a.RowDecoder = um2(d.Macros["rowdec"])
	a.ColPeriphery = um2(d.Macros["colper"])
	a.BIST = um2(d.Macros["trpla"]) + um2(d.Macros["addgen"]) +
		um2(d.Macros["datagen"]) + um2(d.Macros["streg"])
	if t, ok := d.Macros["tlb"]; ok {
		a.BISR = um2(t)
	}
	if d.Plan != nil {
		a.Total = float64(d.Plan.Area) / 1e6
	} else {
		// Area-estimate-only mode (degradation-ladder rung 3): the sum
		// of macro bounding boxes is the floorplan's provable lower
		// bound, so report that instead of an outline.
		for _, c := range d.Macros {
			a.Total += um2(c)
		}
	}
	base := a.ArrayRegular + a.ArraySpare + a.RowDecoder + a.ColPeriphery
	if base > 0 {
		a.OverheadPct = 100 * (a.BIST + a.BISR) / base
	}
	noRepair := a.Total - a.ArraySpare - a.BIST - a.BISR
	if noRepair > 0 {
		a.GrowthFactor = a.Total / noRepair
	} else {
		a.GrowthFactor = 1
	}
}

// NewInstance returns a behavioural built-in self-repairable RAM
// matching the compiled parameters — the simulation model the tool
// ships with the layout. The behavioural model represents words as
// uint64, so it is available for bpw <= 64 (wider layouts still
// compile; simulate a representative slice instead).
func (d *Design) NewInstance() (*bisr.RAM, error) {
	cfg := sram.Config{
		Words: d.Params.Words, BPW: d.Params.BPW,
		BPC: d.Params.BPC, SpareRows: d.Params.Spares,
	}
	arr, err := sram.New(cfg)
	if err != nil {
		return nil, err
	}
	return bisr.NewRAM(arr), nil
}

// Datasheet renders the human-readable summary the original RAMGEN
// lineage shipped with each compiled macro.
func (d *Design) Datasheet() string {
	p := d.Params
	var b strings.Builder
	fmt.Fprintf(&b, "BISRAMGEN datasheet — %s\n", d.Name)
	fmt.Fprintf(&b, "process: %s (%.2f µm, %d metal layers, VDD %.1f V)\n",
		p.Process.Name, float64(p.Process.Feature)/1000, p.Process.Metals, p.Process.VDD)
	fmt.Fprintf(&b, "organisation: %d words x %d bits (bpc %d): %d rows + %d spare rows x %d columns\n",
		p.Words, p.BPW, p.BPC, p.Rows(), p.Spares, p.BPW*p.BPC)
	fmt.Fprintf(&b, "capacity: %d bits (%.1f kbyte)\n", p.Bits(), float64(p.Bits())/8192)
	fmt.Fprintf(&b, "test algorithm: %s, %d backgrounds, %d controller states in %d flip-flops\n",
		d.Prog.Name, p.BPW+1, d.Prog.NumStates, d.Prog.StateBits)
	fmt.Fprintf(&b, "area: total %.0f µm² (array %.0f, spares %.0f, decode %.0f, periphery %.0f, BIST %.0f, BISR %.0f)\n",
		d.Area.Total, d.Area.ArrayRegular, d.Area.ArraySpare, d.Area.RowDecoder,
		d.Area.ColPeriphery, d.Area.BIST, d.Area.BISR)
	fmt.Fprintf(&b, "BIST+BISR overhead: %.2f %%, growth factor %.4f\n", d.Area.OverheadPct, d.Area.GrowthFactor)
	fmt.Fprintf(&b, "timing: access %.3f ns (decode %.3f + wordline %.3f + bitline %.3f + sense %.3f)\n",
		d.Timing.AccessNs, d.Timing.DecodeNs, d.Timing.WordlineNs, d.Timing.BitlineNs, d.Timing.SenseNs)
	fmt.Fprintf(&b, "power: %.2f pJ/read (%.2f mW @ 100 MHz), TRPLA static %.3f mW (test mode only)\n",
		d.Power.ReadEnergyPJ, d.Power.DynamicMwAt100MHz, d.Power.PLAStaticMw)
	if p.Spares > 0 {
		masked := "no"
		if d.Timing.TLBMaskable {
			masked = "yes"
		}
		fmt.Fprintf(&b, "TLB match+map delay: %.3f ns (%.1fx below access; maskable: %s)\n",
			d.Timing.TLBNs, d.Timing.AccessNs/d.Timing.TLBNs, masked)
	}
	if d.Plan != nil {
		fmt.Fprintf(&b, "floorplan: %.0f µm² outline, rectangularity %.3f, aspect %.2f, %d nets abutted, %d routed\n",
			d.Area.Total, d.Plan.Rectangularity, d.Plan.AspectRatio, d.Plan.AbuttedNets, d.Plan.RoutedNets)
	} else {
		fmt.Fprintf(&b, "floorplan: unavailable — area is the sum of macro bounding boxes (lower bound)\n")
	}
	for _, g := range d.Degradations {
		fmt.Fprintf(&b, "degraded: %s\n", g)
	}
	return b.String()
}
