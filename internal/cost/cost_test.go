package cost

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDiesPerWafer(t *testing.T) {
	// 200mm wafer, 100mm² die: pi*10000/100 - pi*200/sqrt(200) ≈
	// 314 - 44 ≈ 269.
	n := DiesPerWafer(200, 100)
	if n < 250 || n > 280 {
		t.Fatalf("dies per wafer %d", n)
	}
	// Bigger wafers more than proportionally increase dies (the
	// paper's 6in -> 8in argument).
	n6 := DiesPerWafer(150, 100)
	ratio := float64(n) / float64(n6)
	areaRatio := (200.0 * 200.0) / (150.0 * 150.0) // 1.78
	if !(ratio > areaRatio) {
		t.Fatalf("8in/6in dies ratio %.2f should exceed area ratio %.2f", ratio, areaRatio)
	}
	if DiesPerWafer(200, 0) != 0 {
		t.Fatal("zero-area die must be 0")
	}
	if DiesPerWafer(10, 10000) != 0 {
		t.Fatal("die bigger than wafer must be 0")
	}
}

func TestDieYield(t *testing.T) {
	d := DefaultDefects()
	small := d.DieYield(50)
	big := d.DieYield(250)
	if !(small > big && small < 1 && big > 0) {
		t.Fatalf("die yields %g %g", small, big)
	}
	// Poisson variant.
	dp := DefectModel{D0: 1.0, Alpha: math.Inf(1)}
	if math.Abs(dp.DieYield(100)-math.Exp(-1)) > 1e-12 {
		t.Fatal("Poisson die yield wrong")
	}
}

func TestAnalyzeBreakdown(t *testing.T) {
	c := Chips()[1] // Intel486DX2
	p := DefaultParams()
	b := Analyze(c, p, 0.6)
	if b.DieCost <= 0 || b.TestAssembly <= 0 || b.PackageFinal <= 0 {
		t.Fatalf("breakdown %+v", b)
	}
	if math.Abs(b.Total-(b.DieCost+b.TestAssembly+b.PackageFinal)) > 1e-9 {
		t.Fatal("total mismatch")
	}
	// Halving yield roughly doubles die cost.
	b2 := Analyze(c, p, 0.3)
	if !(b2.DieCost > 1.9*b.DieCost) {
		t.Fatalf("die cost did not scale with yield: %g vs %g", b2.DieCost, b.DieCost)
	}
	// Degenerate yield.
	b3 := Analyze(c, p, 0)
	if !math.IsInf(b3.Total, 1) {
		t.Fatal("zero yield must blow up")
	}
}

func TestPackagingYieldAdjustment(t *testing.T) {
	p := DefaultParams()
	pga := Chip{Pins: 100, Package: "PGA", DieMm2: 100, WaferCost: 1000, WaferDiamMm: 200, TestMinutes: 1}
	pqfp := pga
	pqfp.Package = "PQFP"
	bp := Analyze(pga, p, 0.5)
	bq := Analyze(pqfp, p, 0.5)
	if !(bq.PackageFinal > bp.PackageFinal) {
		t.Fatal("PQFP final-test fallout should cost more per good chip")
	}
}

func TestAnalyzeBISRTwoMetalBlank(t *testing.T) {
	p := DefaultParams()
	d := DefaultDefects()
	c := Chips()[0] // Intel386DX, 2 metals
	r := AnalyzeBISR(c, p, d, 1.5, 0.07)
	if r.Feasible {
		t.Fatal("2-metal chip must be infeasible (blank table entry)")
	}
	if r.With.Total != r.Without.Total {
		t.Fatal("blank entry should carry unchanged cost")
	}
}

func TestAnalyzeBISRImproves(t *testing.T) {
	p := DefaultParams()
	d := DefaultDefects()
	for _, c := range Chips() {
		if c.Metals < 3 {
			continue
		}
		// A representative improvement factor; the experiments compute
		// the real one from the yield model.
		imp := 1.0 + c.CacheFrac // bigger caches gain more
		r := AnalyzeBISR(c, p, d, imp, 0.07)
		if !r.Feasible {
			t.Fatalf("%s should be feasible", c.Name)
		}
		if !(r.With.Total < r.Without.Total) {
			t.Errorf("%s: BISR did not reduce total cost (%.2f -> %.2f)", c.Name, r.Without.Total, r.With.Total)
		}
		if !(r.DieCostRatio > 1) {
			t.Errorf("%s: die cost ratio %.3f", c.Name, r.DieCostRatio)
		}
		if r.RAMYieldBISR < r.RAMYield {
			t.Errorf("%s: RAM yield got worse", c.Name)
		}
	}
}

func TestAnalyzeBISRUnityImprovementCosts(t *testing.T) {
	// With no yield improvement, the area overhead makes BISR a net
	// loss — the model must show the penalty, not hide it.
	p := DefaultParams()
	d := DefaultDefects()
	c := Chips()[4] // SuperSPARC
	r := AnalyzeBISR(c, p, d, 1.0, 0.07)
	if !(r.With.Total >= r.Without.Total) {
		t.Fatalf("free lunch: %+v", r)
	}
}

func TestChipsDatabase(t *testing.T) {
	cs := Chips()
	if len(cs) < 8 {
		t.Fatalf("database too small: %d", len(cs))
	}
	names := map[string]bool{}
	twoMetal := 0
	for _, c := range cs {
		if names[c.Name] {
			t.Fatalf("duplicate chip %s", c.Name)
		}
		names[c.Name] = true
		if c.DieMm2 <= 0 || c.Pins <= 0 || c.WaferCost <= 0 || c.WaferDiamMm <= 0 {
			t.Fatalf("bad entry %+v", c)
		}
		if c.Metals < 3 {
			twoMetal++
		}
		if c.Package != "PGA" && c.Package != "PQFP" {
			t.Fatalf("%s: unknown package %s", c.Name, c.Package)
		}
	}
	if twoMetal == 0 {
		t.Fatal("database should include 2-metal chips (blank BISR entries)")
	}
	// The headline pair from the paper's Table III must be present.
	if !names["Intel486DX2"] || !names["TI SuperSPARC"] {
		t.Fatal("missing headline chips")
	}
}

func TestSuperSPARCGainsMoreThan486(t *testing.T) {
	// Table III's shape: the big-cache SuperSPARC gains far more than
	// the small-cache 486DX2.
	p := DefaultParams()
	d := DefaultDefects()
	var r486, rSS BISRResult
	for _, c := range Chips() {
		imp := 1.0 + c.CacheFrac
		switch c.Name {
		case "Intel486DX2":
			r486 = AnalyzeBISR(c, p, d, imp, 0.07)
		case "TI SuperSPARC":
			rSS = AnalyzeBISR(c, p, d, imp, 0.07)
		}
	}
	if !(rSS.TotalReductionPct > r486.TotalReductionPct) {
		t.Fatalf("SuperSPARC %.2f%% should beat 486DX2 %.2f%%",
			rSS.TotalReductionPct, r486.TotalReductionPct)
	}
}

// Property: die cost decreases monotonically with yield.
func TestQuickDieCostMonotone(t *testing.T) {
	c := Chips()[3]
	p := DefaultParams()
	f := func(a, b uint8) bool {
		y1 := 0.05 + float64(a)/300.0
		y2 := 0.05 + float64(b)/300.0
		if y1 > y2 {
			y1, y2 = y2, y1
		}
		return Analyze(c, p, y1).DieCost >= Analyze(c, p, y2).DieCost-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
