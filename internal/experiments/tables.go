package experiments

import (
	"fmt"
	"math"

	"repro/internal/compiler"
	"repro/internal/cost"
	"repro/internal/tech"
	"repro/internal/yield"
)

// Table1 regenerates the paper's Table I: BISR area overhead with
// four spare rows on the CDA 0.7 µm process for a range of realistic
// embedded-RAM geometries. (The scan of the paper does not reproduce
// Table I's numeric cells; the configurations here span the paper's
// "realistic embedded sizes" of 64 Kb - 4 Mb and the claim under test
// is overhead < 7 %.)
func Table1() (*Table, error) {
	t := &Table{
		ID:    "TAB1",
		Title: "BISR overhead with four spare rows (process cda07u3m1p)",
		Header: []string{"words", "bpw", "bpc", "kbit", "array_mm2",
			"bist_mm2", "bisr_mm2", "total_mm2", "overhead_pct"},
	}
	configs := []struct{ words, bpw, bpc int }{
		{2048, 32, 8},    // 64 Kb
		{4096, 32, 8},    // 128 Kb
		{4096, 64, 8},    // 256 Kb
		{8192, 64, 8},    // 512 Kb
		{8192, 128, 16},  // 1 Mb
		{16384, 128, 16}, // 2 Mb
		{16384, 256, 16}, // 4 Mb
	}
	for _, c := range configs {
		p := compiler.Params{
			Words: c.words, BPW: c.bpw, BPC: c.bpc, Spares: 4,
			BufSize: 2, StrapCells: 32, Process: tech.CDA07,
		}
		d, err := compiler.Compile(p)
		if err != nil {
			return nil, fmt.Errorf("table1 %dx%d: %w", c.words, c.bpw, err)
		}
		t.Add(c.words, c.bpw, c.bpc, c.words*c.bpw/1024,
			(d.Area.ArrayRegular+d.Area.ArraySpare)/1e6,
			d.Area.BIST/1e6, d.Area.BISR/1e6, d.Area.Total/1e6,
			d.Area.OverheadPct)
	}
	t.Note("paper claim: overhead at most 7%% for realistic array sizes; redundant rows excluded from overhead")
	return t, nil
}

// cacheYieldImprovement computes the embedded-RAM yield improvement
// factor BISR delivers for a chip, using the Fig. 4 machinery on the
// chip's cache area: defects scale with D0 times the cache silicon.
func cacheYieldImprovement(c cost.Chip, d cost.DefectModel, growth float64) float64 {
	if c.CacheFrac <= 0 {
		return 1
	}
	defects := d.D0 * c.DieMm2 * c.CacheFrac / 100.0
	m := yield.Model{
		Rows: 1024, Cols: 64, Spares: 4,
		GrowthFactor: growth, Alpha: d.Alpha,
	}
	return m.ImprovementFactor(defects)
}

// Table2With builds Table II from pre-measured growth factors (see
// Fig4With).
func Table2With(gf map[int]float64) (*Table, error) {
	t := &Table{
		ID:    "TAB2",
		Title: "Cost per good die with and without RAM BISR",
		Header: []string{"chip", "metals", "die_mm2", "dies/wafer",
			"yield", "die_cost", "die_cost_bisr", "ratio"},
	}
	p := cost.DefaultParams()
	dm := cost.DefaultDefects()
	for _, c := range cost.Chips() {
		imp := cacheYieldImprovement(c, dm, gf[4])
		r := cost.AnalyzeBISR(c, p, dm, imp, overheadFracFor(c))
		if !r.Feasible {
			t.Add(c.Name, c.Metals, c.DieMm2, r.Without.DiesPerWafer,
				r.Without.DieYield, r.Without.DieCost, "-", "-")
			continue
		}
		t.Add(c.Name, c.Metals, c.DieMm2, r.Without.DiesPerWafer,
			r.Without.DieYield, r.Without.DieCost, r.With.DieCost, r.DieCostRatio)
	}
	t.Note("blank entries: 2-metal processes (BISRAMGEN needs 3 metal layers)")
	t.Note("paper shape: die-cost reduction often ~2x for large-cache dies")
	return t, nil
}

// Table3With builds Table III from pre-measured growth factors (see
// Fig4With).
func Table3With(gf map[int]float64) (*Table, error) {
	t := &Table{
		ID:    "TAB3",
		Title: "Total manufacturing cost per packaged chip with and without RAM BISR",
		Header: []string{"chip", "die", "test+assy", "pkg+final",
			"total", "total_bisr", "reduction_pct"},
	}
	p := cost.DefaultParams()
	dm := cost.DefaultDefects()
	for _, c := range cost.Chips() {
		imp := cacheYieldImprovement(c, dm, gf[4])
		r := cost.AnalyzeBISR(c, p, dm, imp, overheadFracFor(c))
		if !r.Feasible {
			t.Add(c.Name, r.Without.DieCost, r.Without.TestAssembly,
				r.Without.PackageFinal, r.Without.Total, "-", "-")
			continue
		}
		t.Add(c.Name, r.Without.DieCost, r.Without.TestAssembly,
			r.Without.PackageFinal, r.Without.Total, r.With.Total,
			r.TotalReductionPct)
	}
	t.Note("paper band: reductions from 2.35%% (Intel486DX2) to 47.2%% (TI SuperSPARC)")
	return t, nil
}

// WaferStudyWith builds the wafer study from pre-measured growth
// factors (see Fig4With).
func WaferStudyWith(gf map[int]float64) (*Table, string, error) {
	var chip cost.Chip
	for _, c := range cost.Chips() {
		if c.Name == "TI SuperSPARC" {
			chip = c
		}
	}
	d := cost.DefaultDefects()
	imp := cacheYieldImprovement(chip, d, gf[4])
	side := math.Sqrt(chip.DieMm2)
	w := cost.NewWaferMap(chip.WaferDiamMm, side, side)
	const edge = 2.0
	t := &Table{
		ID:     "WAFER",
		Title:  "Wafer-map yield by radial zone, TI SuperSPARC die, edge-degraded defects",
		Header: []string{"zone", "dies", "yield", "yield_bisr", "gain_pct"},
	}
	zones, counts := w.ZoneYields(d, edge, chip.CacheFrac, imp)
	names := [3]string{"centre", "mid", "edge"}
	for z := 0; z < 3; z++ {
		gain := 0.0
		if zones[z][0] > 0 {
			gain = 100 * (zones[z][1] - zones[z][0]) / zones[z][0]
		}
		t.Add(names[z], counts[z], zones[z][0], zones[z][1], gain)
	}
	base, bisr := w.ExpectedGood(d, edge, chip.CacheFrac, imp)
	t.Note("expected good dies per wafer: %.1f without BISR, %.1f with (%d sites)", base, bisr, w.Count())
	return t, w.ASCII(d, edge), nil
}

// overheadFracFor returns the BISR area overhead fraction of the
// cache, from Table I's regime: smaller caches pay proportionally
// more.
func overheadFracFor(c cost.Chip) float64 {
	switch {
	case c.CacheFrac >= 0.3:
		return 0.03
	case c.CacheFrac >= 0.15:
		return 0.05
	default:
		return 0.07
	}
}
