package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func parse(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", Header: []string{"a", "b"}}
	tb.Add(1, 2.5)
	tb.Add("x,y", true)
	tb.Note("n%d", 1)
	s := tb.String()
	if !strings.Contains(s, "== X: demo ==") || !strings.Contains(s, "note: n1") {
		t.Fatalf("bad text render:\n%s", s)
	}
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y"`) {
		t.Fatalf("CSV quoting broken:\n%s", csv)
	}
	if !strings.Contains(csv, "a,b") {
		t.Fatal("CSV header missing")
	}
}

// growthFactors compiles the growth factors the tables and Fig. 4
// evaluate, as cmd/experiments does.
func growthFactors(t *testing.T) map[int]float64 {
	t.Helper()
	gf, err := GrowthFactors()
	if err != nil {
		t.Fatal(err)
	}
	return gf
}

func TestFig4Shape(t *testing.T) {
	tb, err := Fig4With(growthFactors(t), 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 5 {
		t.Fatalf("too few rows: %d", len(tb.Rows))
	}
	// At the largest defect count, the spare ordering must hold:
	// Y16 > Y8 > Y4 > Y0.
	last := tb.Rows[len(tb.Rows)-1]
	y0, y4, y8, y16 := parse(t, last[1]), parse(t, last[2]), parse(t, last[3]), parse(t, last[4])
	if !(y16 > y8 && y8 > y4 && y4 > y0) {
		t.Fatalf("Fig4 ordering violated at high defects: %v", last)
	}
	// At zero defects all yields are ~1.
	first := tb.Rows[0]
	for i := 1; i <= 4; i++ {
		if v := parse(t, first[i]); v < 0.97 {
			t.Fatalf("zero-defect yield %v", first)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	tb, err := Fig5(30, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Early (5y): fewer spares better among BISR configs. Late (30y):
	// more spares better.
	early := tb.Rows[1]
	r4e, r8e, r16e := parse(t, early[2]), parse(t, early[3]), parse(t, early[4])
	if !(r4e > r8e && r8e > r16e) {
		t.Fatalf("early ordering violated: %v", early)
	}
	late := tb.Rows[len(tb.Rows)-1]
	r0l, r4l, r8l, r16l := parse(t, late[1]), parse(t, late[2]), parse(t, late[3]), parse(t, late[4])
	if !(r16l > r8l && r8l > r4l && r4l > r0l) {
		t.Fatalf("late ordering violated: %v", late)
	}
	// A crossover note must be present and in a plausible multi-year
	// range.
	found := false
	for _, n := range tb.Notes {
		if strings.Contains(n, "4-vs-8-spare crossover") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing crossover note: %v", tb.Notes)
	}
}

func TestTable1OverheadBound(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles several large arrays")
	}
	tb, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 5 {
		t.Fatal("too few configurations")
	}
	prev := 1e9
	for _, r := range tb.Rows {
		kbit := parse(t, r[3])
		ov := parse(t, r[8])
		if kbit >= 64 && ov > 7.0 {
			t.Errorf("%s Kb: overhead %.2f%% exceeds the paper's 7%% claim", r[3], ov)
		}
		_ = prev
	}
	// Overhead decreases from the smallest to the largest config.
	first := parse(t, tb.Rows[0][8])
	lastV := parse(t, tb.Rows[len(tb.Rows)-1][8])
	if !(lastV < first) {
		t.Errorf("overhead should fall with capacity: %.2f -> %.2f", first, lastV)
	}
}

func TestTables2And3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles growth-factor layouts")
	}
	gf := growthFactors(t)
	t2, err := Table2With(gf)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Table3With(gf)
	if err != nil {
		t.Fatal(err)
	}
	blank2, improved := 0, 0
	for _, r := range t2.Rows {
		if r[6] == "-" {
			blank2++
			continue
		}
		if parse(t, r[7]) > 1.0 {
			improved++
		}
	}
	if blank2 == 0 {
		t.Error("expected blank entries for 2-metal chips")
	}
	if improved == 0 {
		t.Error("no chip showed a die-cost improvement")
	}
	// Table III: SuperSPARC reduction must exceed 486DX2's, and the
	// band must be wide (the paper spans 2.35%..47.2%).
	var rSS, r486 float64
	var maxRed float64
	for _, r := range t3.Rows {
		if r[6] == "-" {
			continue
		}
		red := parse(t, r[6])
		if red > maxRed {
			maxRed = red
		}
		switch r[0] {
		case "TI SuperSPARC":
			rSS = red
		case "Intel486DX2":
			r486 = red
		}
	}
	if !(rSS > r486) {
		t.Errorf("SuperSPARC %.2f%% should beat 486DX2 %.2f%%", rSS, r486)
	}
	if !(r486 > 0 && r486 < 15) {
		t.Errorf("486DX2 reduction %.2f%% outside the small-cache band", r486)
	}
	if !(maxRed > 10) {
		t.Errorf("largest reduction %.2f%% implausibly small", maxRed)
	}
}

func TestCoverageClaims(t *testing.T) {
	tb, err := Coverage()
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{"MATS+": 1, "March C-": 2, "IFA-9": 3, "IFA-13": 4, "IFA-9(single bg)": 5}
	rows := map[string][]string{}
	for _, r := range tb.Rows {
		rows[r[0]] = r
	}
	mustFull := func(fault, test string) {
		t.Helper()
		v := parse(t, rows[fault][col[test]])
		if v < 100 {
			t.Errorf("%s under %s: %.0f%%, want 100%%", fault, test, v)
		}
	}
	for _, f := range []string{"SA0", "SA1", "TFU", "TFD"} {
		mustFull(f, "IFA-9")
		mustFull(f, "IFA-13")
	}
	for _, f := range []string{"DRF0", "DRF1"} {
		mustFull(f, "IFA-9")
		// March C- has no retention delay: must miss them.
		if v := parse(t, rows[f][col["March C-"]]); v > 0 {
			t.Errorf("March C- should miss %s, got %.0f%%", f, v)
		}
	}
	// IFA-13 adds SOF coverage over IFA-9.
	sof9 := parse(t, rows["SOF"][col["IFA-9"]])
	sof13 := parse(t, rows["SOF"][col["IFA-13"]])
	if !(sof13 > sof9) {
		t.Errorf("IFA-13 SOF %.0f%% should beat IFA-9 %.0f%%", sof13, sof9)
	}
	if sof13 < 100 {
		t.Errorf("IFA-13 SOF coverage %.0f%%, want 100%%", sof13)
	}
	// Johnson backgrounds beat the single background on intra-word
	// couplings.
	intra := rows["CFID(intra-word)"]
	j := parse(t, intra[col["IFA-9"]])
	s := parse(t, intra[col["IFA-9(single bg)"]])
	if !(j > s) {
		t.Errorf("Johnson %.0f%% should beat single background %.0f%% on intra-word CFID", j, s)
	}
	if j < 100 {
		t.Errorf("Johnson intra-word coverage %.0f%%, want 100%%", j)
	}
}

func TestRepairComparison(t *testing.T) {
	tb, err := RepairComparison(12, 42)
	if err != nil {
		t.Fatal(err)
	}
	// At 1 fault everyone repairs; in the 2-4 fault band the TLB's
	// row redundancy must strictly beat Sawada's single-address
	// register (at very high fault counts both collapse to 0%).
	for _, r := range tb.Rows {
		nf := parse(t, r[0])
		tlb := parse(t, r[1])
		iter := parse(t, r[2])
		saw := parse(t, r[3])
		if nf == 1 && tlb < 100 {
			t.Errorf("single fault must always repair: %v", r)
		}
		if nf >= 2 && nf <= 4 && !(tlb > saw) {
			t.Errorf("TLB should beat Sawada at %v faults: %v", nf, r)
		}
		if nf >= 2 && tlb < saw {
			t.Errorf("TLB worse than Sawada at %v faults: %v", nf, r)
		}
		if iter < tlb {
			t.Errorf("iterated repair can't be worse than single-pass: %v", r)
		}
	}
}

func TestWaferStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles growth-factor layouts")
	}
	tb, art, err := WaferStudyWith(growthFactors(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("zones %d", len(tb.Rows))
	}
	// Radial base-yield ordering and BISR gain in every zone.
	yc := parse(t, tb.Rows[0][2])
	ye := parse(t, tb.Rows[2][2])
	if !(yc > ye) {
		t.Fatalf("centre %v should out-yield edge %v", yc, ye)
	}
	for _, r := range tb.Rows {
		if parse(t, r[4]) <= 0 {
			t.Errorf("zone %s: no BISR gain", r[0])
		}
	}
	if !strings.ContainsAny(art, "0123456789") {
		t.Fatal("wafer map art empty")
	}
}

func TestClustering(t *testing.T) {
	tb, err := Clustering(30, 5)
	if err != nil {
		t.Fatal(err)
	}
	// At the mid defect counts the clustered repair rate dominates.
	dominated := 0
	for _, r := range tb.Rows {
		u := parse(t, r[1])
		c := parse(t, r[2])
		if c >= u {
			dominated++
		}
	}
	if dominated < len(tb.Rows)-1 {
		t.Fatalf("clustered defects should repair at least as often: %v", tb.Rows)
	}
}

func TestCorners(t *testing.T) {
	tb, err := Corners()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	fast := parse(t, tb.Rows[0][1])
	typ := parse(t, tb.Rows[1][1])
	slow := parse(t, tb.Rows[2][1])
	if !(fast < typ && typ < slow) {
		t.Fatalf("corner ordering wrong: %v %v %v", fast, typ, slow)
	}
	for _, r := range tb.Rows {
		if r[4] != "yes" {
			t.Errorf("TLB not maskable at %s corner", r[0])
		}
	}
}

func TestGateLevelExperiment(t *testing.T) {
	tb, err := GateLevel(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		// Perfect agreement between gate-level and behavioural.
		var a, n int
		if _, err := fmt.Sscanf(r[1], "%d/%d", &a, &n); err != nil {
			t.Fatal(err)
		}
		if a != n {
			t.Errorf("disagreement at %s faults: %s", r[0], r[1])
		}
	}
	// Zero faults: always repaired.
	if parse(t, tb.Rows[0][2]) != 100 {
		t.Errorf("fault-free gate-level rate %s", tb.Rows[0][2])
	}
}

func TestMonteCarloMatchesAnalytic(t *testing.T) {
	tb, err := MonteCarloYield(40, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		sim := parse(t, r[1])
		ana := parse(t, r[2])
		if diff := sim - ana; diff < -35 || diff > 35 {
			t.Errorf("defects %s: simulated %.0f%% vs analytic %.0f%% diverge", r[0], sim, ana)
		}
	}
}

func TestStatisticalYieldTable(t *testing.T) {
	tb, err := StatisticalYield(400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tb.ID != "STATY" || len(tb.Rows) != 5 {
		t.Fatalf("table %s with %d rows", tb.ID, len(tb.Rows))
	}
	prevFail := -1.0
	for _, r := range tb.Rows {
		fail := parse(t, r[1])
		if fail < 0 || fail > 1 {
			t.Fatalf("fail prob out of range: %v", r)
		}
		// Failure probability must grow with sigma (monotone rows).
		if fail < prevFail {
			t.Errorf("fail prob not monotone in sigma: %v", tb.Rows)
		}
		prevFail = fail
		mcY := parse(t, r[4])
		cfY := parse(t, r[5])
		if mcY < 0 || mcY > 1 || cfY < 0 || cfY > 1 {
			t.Fatalf("yields out of range: %v", r)
		}
		// The two yield formulas see the same expected fault count;
		// (1-p)^n vs e^{-pn} agree to a few percent everywhere.
		if diff := mcY - cfY; diff < -0.05 || diff > 0.05 {
			t.Errorf("sigma %s: MC yield %.4f vs closed form %.4f diverge", r[0], mcY, cfY)
		}
	}
	// Seeded: regeneration is byte-identical.
	tb2, err := StatisticalYield(400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tb.String() != tb2.String() {
		t.Fatal("STATY table not reproducible for the same seed")
	}
}

func TestCostSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles growth-factor layouts")
	}
	tb, err := CostSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	// SuperSPARC reduction must grow monotonically with defect
	// density and dominate the 486 at every point.
	prevSS := -100.0
	for _, r := range tb.Rows {
		r486 := parse(t, r[1])
		rSS := parse(t, r[2])
		if rSS < prevSS {
			t.Errorf("SuperSPARC reduction not monotone: %v", tb.Rows)
		}
		prevSS = rSS
		if rSS < r486 {
			t.Errorf("large cache should gain at least as much: %v", r)
		}
	}
	// High density end must show a large benefit.
	if last := parse(t, tb.Rows[len(tb.Rows)-1][2]); last < 15 {
		t.Errorf("SuperSPARC at D0=2.0 gains only %.1f%%", last)
	}
}

func TestCriticalAreaStudy(t *testing.T) {
	tb, err := CriticalAreaStudy()
	if err != nil {
		t.Fatal(err)
	}
	// With the supply rails at opposite cell edges, the vdd-gnd fatal
	// critical area is exactly zero at every listed radius — the
	// paper's near-zero-fatal-critical-area template property.
	for _, r := range tb.Rows {
		if fatal := parse(t, r[1]); fatal != 0 {
			t.Errorf("fatal CA at %sλ = %s, want 0", r[0], r[1])
		}
	}
	// Signal CA is monotone in radius.
	prev := -1.0
	for _, r := range tb.Rows {
		v := parse(t, r[2])
		if v < prev {
			t.Errorf("signal CA not monotone: %v", tb.Rows)
		}
		prev = v
	}
}

func TestTestLengthTradeoff(t *testing.T) {
	tb, err := TestLengthTradeoff()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, r := range tb.Rows {
		rows[r[0]] = r
	}
	// IFA-13 runs longer than IFA-9 which runs longer than MATS+.
	c9 := parse(t, rows["IFA-9"][2])
	c13 := parse(t, rows["IFA-13"][2])
	cm := parse(t, rows["MATS+"][2])
	if !(c13 > c9 && c9 > cm) {
		t.Fatalf("cycle ordering wrong: %v %v %v", c13, c9, cm)
	}
	// Coverage ordering: IFA-13 >= IFA-9 > MATS+.
	s9 := parse(t, rows["IFA-9"][5])
	s13 := parse(t, rows["IFA-13"][5])
	sm := parse(t, rows["MATS+"][5])
	if !(s13 >= s9 && s9 > sm) {
		t.Fatalf("coverage ordering wrong: %v %v %v", s13, s9, sm)
	}
	if s13 < 99 {
		t.Fatalf("IFA-13 score %.0f%%, want ~100%%", s13)
	}
}

func TestYieldAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles growth-factor layouts")
	}
	tb, err := YieldAblation()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		if parse(t, r[2]) < parse(t, r[1])-1e-9 {
			t.Errorf("iterated yield below strict: %v", r)
		}
	}
}
