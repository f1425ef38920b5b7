package experiments

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/reliability"
	"repro/internal/render"
	"repro/internal/tech"
	"repro/internal/yield"
)

// fig45Rows/BPC/BPW are the common geometry of Figs. 4 and 5: a
// narrow RAM with 1024 rows, bpc = 4, bpw = 4.
const (
	fig45Rows = 1024
	fig45BPC  = 4
	fig45BPW  = 4
)

// fig45Params compiles the Fig. 4/5 RAM with the given spare count to
// obtain its real growth factor.
func fig45Params(spares int) compiler.Params {
	return compiler.Params{
		Words: fig45Rows * fig45BPC, BPW: fig45BPW, BPC: fig45BPC,
		Spares: spares, BufSize: 2, StrapCells: 32, Process: tech.CDA07,
	}
}

// GrowthFactors compiles the Fig. 4 RAM at each spare count and
// returns the measured area growth factors the yield model needs.
func GrowthFactors() (map[int]float64, error) {
	out := map[int]float64{0: 1.0}
	for _, s := range []int{4, 8, 16} {
		d, err := compiler.Compile(fig45Params(s))
		if err != nil {
			return nil, fmt.Errorf("growth factor for %d spares: %w", s, err)
		}
		out[s] = d.Area.GrowthFactor
	}
	return out, nil
}

// Fig4 regenerates the yield-vs-defects plot: four series for 0, 4,
// 8 and 16 spares, with defects swept on the nonredundant-array axis
// exactly as the paper plots it. Growth factors come from local
// compiles; Fig4With accepts them from any source (e.g. the sweep
// service).
func Fig4(maxDefects int, step float64) (*Table, error) {
	gf, err := GrowthFactors()
	if err != nil {
		return nil, err
	}
	return Fig4With(gf, maxDefects, step)
}

// Fig4With builds the Fig. 4 table from pre-measured growth factors
// (keys 4, 8, 16; 0 is implicit). The table depends only on gf, so a
// service-fetched map yields byte-identical output to a local one.
func Fig4With(gf map[int]float64, maxDefects int, step float64) (*Table, error) {
	t := &Table{
		ID:     "FIG4",
		Title:  "Yield vs number of defects (1024 rows, bpc=4, bpw=4)",
		Header: []string{"defects", "Y(no spares)", "Y(4+BISR)", "Y(8+BISR)", "Y(16+BISR)"},
	}
	models := map[int]yield.Model{}
	for _, s := range []int{0, 4, 8, 16} {
		models[s] = yield.Model{
			Rows: fig45Rows, Cols: fig45BPC * fig45BPW, Spares: s,
			GrowthFactor: gf[s],
		}
	}
	if step <= 0 {
		step = 2
	}
	for n := 0.0; n <= float64(maxDefects); n += step {
		t.Add(n,
			models[0].YieldNoRepair(n),
			models[4].YieldBISR(n),
			models[8].YieldBISR(n),
			models[16].YieldBISR(n))
	}
	t.Note("growth factors from compiled layouts: 4sp %.4f, 8sp %.4f, 16sp %.4f",
		gf[4], gf[8], gf[16])
	t.Note("paper shape: BISR curves dominate the no-spare curve; more spares win at high defect counts")
	return t, nil
}

// Fig5LambdaBit is the per-bit hard-failure rate used for the Fig. 5
// reproduction: 1e-8 per hour (1e-5 per kilo-hour per cell), chosen
// so the 4-vs-8-spare crossover lands in the paper's ~8-year range.
const Fig5LambdaBit = 1e-8

// Fig5 regenerates the reliability-vs-age plot for 0, 4, 8 and 16
// spares plus the crossover ages.
func Fig5(maxYears int, stepYears float64) (*Table, error) {
	t := &Table{
		ID:     "FIG5",
		Title:  "Reliability vs device age (1024 rows, bpc=4, bpw=4)",
		Header: []string{"years", "R(no spares)", "R(4+BISR)", "R(8+BISR)", "R(16+BISR)"},
	}
	model := func(s int) reliability.Model {
		return reliability.Model{
			Rows: fig45Rows, BPC: fig45BPC, BPW: fig45BPW,
			Spares: s, LambdaBit: Fig5LambdaBit,
		}
	}
	if stepYears <= 0 {
		stepYears = 1
	}
	for y := 0.0; y <= float64(maxYears); y += stepYears {
		h := y * reliability.HoursPerYear
		t.Add(y, model(0).Reliability(h), model(4).Reliability(h),
			model(8).Reliability(h), model(16).Reliability(h))
	}
	if age, err := reliability.CrossoverAge(model(0), 4, 8, 100*reliability.HoursPerYear); err == nil {
		t.Note("4-vs-8-spare crossover at %.1f years (paper: ~8 years)", age/reliability.HoursPerYear)
	}
	if age, err := reliability.CrossoverAge(model(0), 8, 16, 300*reliability.HoursPerYear); err == nil {
		t.Note("8-vs-16-spare crossover at %.1f years", age/reliability.HoursPerYear)
	}
	for _, s := range []int{0, 4, 8, 16} {
		t.Note("MTTF(%d spares) = %.0f hours", s, model(s).MTTF())
	}
	return t, nil
}

// LayoutResult bundles a compiled layout experiment.
type LayoutResult struct {
	Table  *Table
	Design *compiler.Design
	SVG    string
	ASCII  string
	GDS    []byte
}

// layoutFig compiles one of the paper's example arrays and renders
// it.
func layoutFig(id, title string, p compiler.Params) (*LayoutResult, error) {
	d, err := compiler.Compile(p)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title,
		Header: []string{"metric", "value"}}
	b := d.Top.Bounds()
	t.Add("organisation", fmt.Sprintf("%d words x %d bits, bpc %d, %d spares",
		p.Words, p.BPW, p.BPC, p.Spares))
	t.Add("capacity_kbyte", float64(p.Bits())/8192)
	t.Add("outline_um", fmt.Sprintf("%.0f x %.0f", float64(b.W())/1000, float64(b.H())/1000))
	t.Add("total_area_mm2", d.Area.Total/1e6)
	t.Add("overhead_pct", d.Area.OverheadPct)
	t.Add("growth_factor", d.Area.GrowthFactor)
	t.Add("access_ns", d.Timing.AccessNs)
	t.Add("tlb_ns", d.Timing.TLBNs)
	t.Add("rectangularity", d.Plan.Rectangularity)
	t.Add("transistors(array row)", int64(p.BPW*p.BPC*6))
	arts, err := d.Artifacts()
	if err != nil {
		return nil, err
	}
	return &LayoutResult{
		Table:  t,
		Design: d,
		SVG:    string(arts["layout.svg"]),
		ASCII:  render.ASCII(d.Top, 78),
		GDS:    arts["layout.gds"],
	}, nil
}

// Fig6 reproduces the paper's Fig. 6 layout: a 64-kbyte SRAM of 4 K
// words x 128 bits, 8 bits per column, 32 cells between straps, four
// spare rows, buffer size 2.
func Fig6() (*LayoutResult, error) {
	return layoutFig("FIG6", "SRAM array, 4 K words x 128 b (64 kbyte)", compiler.Params{
		Words: 4096, BPW: 128, BPC: 8, Spares: 4,
		BufSize: 2, StrapCells: 32, Process: tech.CDA07,
	})
}

// Fig7 reproduces Fig. 7: 4 K words x 256 bits (128 kbyte), 16 bits
// per column, 32 cells between straps, four spare rows, buffer size 2.
func Fig7() (*LayoutResult, error) {
	return layoutFig("FIG7", "SRAM array, 4 K words x 256 b (128 kbyte)", compiler.Params{
		Words: 4096, BPW: 256, BPC: 16, Spares: 4,
		BufSize: 2, StrapCells: 32, Process: tech.CDA07,
	})
}
