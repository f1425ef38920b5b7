// Package cost implements the paper's Section X manufacturing cost
// model (the Microprocessor Report "MPR" model): die cost from wafer
// cost, dies-per-wafer and yield; wafer test and assembly cost;
// packaging and final test cost — evaluated with and without built-in
// self-repair of the embedded RAM for a database of period commercial
// microprocessors.
package cost

import (
	"math"
)

// DefectModel carries the process defect parameters used for die
// yield.
type DefectModel struct {
	// D0 is the defect density in defects per cm².
	D0 float64
	// Alpha is the Stapper clustering parameter.
	Alpha float64
}

// DieYield returns the Stapper yield of a die of the given area (mm²).
func (d DefectModel) DieYield(dieMm2 float64) float64 {
	n := d.D0 * dieMm2 / 100.0 // defects/cm² * cm²
	if d.Alpha <= 0 || math.IsInf(d.Alpha, 1) {
		return math.Exp(-n)
	}
	return math.Pow(1+n/d.Alpha, -d.Alpha)
}

// DiesPerWafer returns the usable die count on a circular wafer of
// the given diameter (mm) for a die of the given area (mm²), using
// the standard edge-corrected formula.
func DiesPerWafer(waferDiamMm, dieMm2 float64) int {
	if dieMm2 <= 0 {
		return 0
	}
	r := waferDiamMm / 2
	n := math.Pi*r*r/dieMm2 - math.Pi*waferDiamMm/math.Sqrt(2*dieMm2)
	if n < 0 {
		return 0
	}
	return int(n)
}

// CostParams carries the industry-wide cost constants from the MPR
// model.
type CostParams struct {
	// WaferTestPerMinute is the amortised wafer test cost ($/min).
	WaferTestPerMinute float64
	// BadDieTestSeconds is the truncated test time spent on a bad die.
	BadDieTestSeconds float64
	// PackagePerPin is the packaging + final test cost per pin ($).
	PackagePerPin float64
	// FinalTestYieldPGA and FinalTestYieldPQFP adjust packaging cost
	// for final-test fallout (the paper quotes 97% and 93%).
	FinalTestYieldPGA  float64
	FinalTestYieldPQFP float64
}

// DefaultParams returns the constants quoted in the paper.
func DefaultParams() CostParams {
	return CostParams{
		WaferTestPerMinute: 5.00,
		BadDieTestSeconds:  3.0,
		PackagePerPin:      0.01,
		FinalTestYieldPGA:  0.97,
		FinalTestYieldPQFP: 0.93,
	}
}

// Chip describes one commercial microprocessor from the database.
type Chip struct {
	Name        string
	Year        int
	FeatureUm   float64
	Metals      int     // metal layers; BISR requires >= 3
	DieMm2      float64 // die area
	Pins        int
	Package     string  // "PGA" or "PQFP"
	CacheFrac   float64 // fraction of die area occupied by embedded RAM
	WaferCost   float64 // $ per wafer
	WaferDiamMm float64
	TestMinutes float64 // full test time for a good die
}

// Breakdown is the per-chip cost decomposition.
type Breakdown struct {
	DieYield     float64
	DiesPerWafer int
	DieCost      float64
	TestAssembly float64
	PackageFinal float64
	Total        float64
}

// Analyze computes the cost breakdown for a chip at the given die
// yield.
func Analyze(c Chip, p CostParams, dieYield float64) Breakdown {
	dpw := DiesPerWafer(c.WaferDiamMm, c.DieMm2)
	b := Breakdown{DieYield: dieYield, DiesPerWafer: dpw}
	if dpw == 0 || dieYield <= 0 {
		b.DieCost = math.Inf(1)
		b.Total = math.Inf(1)
		return b
	}
	b.DieCost = c.WaferCost / (float64(dpw) * dieYield)
	// Wafer test: each good die gets the full test; the bad dies'
	// truncated test time is amortised over the good ones.
	goodTest := c.TestMinutes * p.WaferTestPerMinute
	badPerGood := (1 - dieYield) / dieYield
	badTest := badPerGood * p.BadDieTestSeconds / 60.0 * p.WaferTestPerMinute
	b.TestAssembly = goodTest + badTest
	fty := p.FinalTestYieldPGA
	if c.Package == "PQFP" {
		fty = p.FinalTestYieldPQFP
	}
	b.PackageFinal = float64(c.Pins) * p.PackagePerPin / fty
	b.Total = b.DieCost + b.TestAssembly + b.PackageFinal
	return b
}

// BISRResult compares a chip without and with embedded-RAM BISR.
type BISRResult struct {
	Chip     Chip
	Without  Breakdown
	With     Breakdown
	Feasible bool // false when the process has < 3 metal layers
	// RAMYield / RAMYieldBISR are the embedded RAM macro yields.
	RAMYield     float64
	RAMYieldBISR float64
	// DieCostRatio = without.DieCost / with.DieCost (>1 is a win).
	DieCostRatio float64
	// TotalReductionPct = 100*(1 - with.Total/without.Total).
	TotalReductionPct float64
}

// AnalyzeBISR evaluates a chip with and without BISR. ramImprovement
// is the embedded-RAM yield improvement factor delivered by BISR
// (computed by the yield model for the chip's cache geometry), and
// areaOverheadFrac is the BISR area overhead as a fraction of the
// *cache* area (Table I's < 7%).
func AnalyzeBISR(c Chip, p CostParams, d DefectModel, ramImprovement, areaOverheadFrac float64) BISRResult {
	res := BISRResult{Chip: c}
	yBase := d.DieYield(c.DieMm2)
	res.Without = Analyze(c, p, yBase)
	if c.Metals < 3 {
		// BISRAMGEN needs three metal layers: blank entry in the
		// paper's tables.
		res.With = res.Without
		res.DieCostRatio = 1
		return res
	}
	res.Feasible = true
	// RAM yield via the paper's Y_RAM = Y_die^frac approximation.
	res.RAMYield = math.Pow(yBase, c.CacheFrac)
	res.RAMYieldBISR = math.Min(1, res.RAMYield*ramImprovement)
	// BISR grows the die by the cache overhead; the extra area also
	// collects defects in the non-repairable logic.
	grown := c.Chip()
	grown.DieMm2 = c.DieMm2 * (1 + c.CacheFrac*areaOverheadFrac)
	yGrownDie := d.DieYield(grown.DieMm2)
	// Non-RAM part of the grown die keeps its (slightly lower) yield;
	// the RAM part is replaced by the improved yield.
	nonRAM := yGrownDie / math.Pow(yGrownDie, c.CacheFrac)
	yWith := nonRAM * math.Min(1, math.Pow(yGrownDie, c.CacheFrac)*ramImprovement)
	res.With = Analyze(grown, p, yWith)
	if res.With.DieCost > 0 {
		res.DieCostRatio = res.Without.DieCost / res.With.DieCost
	}
	if res.Without.Total > 0 {
		res.TotalReductionPct = 100 * (1 - res.With.Total/res.Without.Total)
	}
	return res
}

// Chip returns a copy (helper for grown-die analysis).
func (c Chip) Chip() Chip { return c }
