package leafcell

import (
	"strings"
	"testing"

	"repro/internal/spice"
	"repro/internal/tech"
)

func lib(t *testing.T) *Library {
	t.Helper()
	l, err := NewLibrary(tech.CDA07, 2)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLibraryBuilds(t *testing.T) {
	for _, p := range []*tech.Process{tech.CDA05, tech.MOS06, tech.CDA07} {
		l, err := NewLibrary(p, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, c := range l.All() {
			if c.Bounds().Empty() {
				t.Errorf("%s/%s: empty bounds", p.Name, c.Name)
			}
		}
	}
	if _, err := NewLibrary(tech.CDA07, 9); err == nil {
		t.Fatal("oversized buffer accepted")
	}
}

func TestCellsAreDRCClean(t *testing.T) {
	l := lib(t)
	cells := l.All()
	cells = append(cells, l.RowDecoder(5), l.RowDecoder(10))
	for _, c := range cells {
		if vs := c.CheckDRC(5); len(vs) > 0 {
			t.Errorf("%s: %d DRC violations, first: %v", c.Name, len(vs), vs[0])
		}
	}
}

func TestAreasScaleWithLambdaSquared(t *testing.T) {
	a5 := SRAM6T(tech.CDA05).AreaUm2()
	a7 := SRAM6T(tech.CDA07).AreaUm2()
	ratio := a7 / a5
	want := (0.7 / 0.5) * (0.7 / 0.5)
	if ratio < want*0.95 || ratio > want*1.05 {
		t.Fatalf("area ratio %.3f, want ~%.3f (lambda² scaling)", ratio, want)
	}
}

func TestSRAMCellProperties(t *testing.T) {
	c := SRAM6T(tech.CDA07)
	if len(c.Transistors) != 6 {
		t.Fatalf("6T cell has %d transistors", len(c.Transistors))
	}
	for _, port := range []string{"bl", "blb", "wl", "vdd", "gnd"} {
		if _, ok := c.Port(port); !ok {
			t.Errorf("missing port %s", port)
		}
	}
	// Era-plausible area: a 0.7µm 6T cell should be tens of µm².
	a := c.AreaUm2()
	if a < 30 || a > 400 {
		t.Fatalf("implausible 6T area %.1f µm²", a)
	}
	// Exactly two electrical NMOS pass gates on wl.
	passes := 0
	for _, m := range c.Transistors {
		if m.G == "wl" && m.Type == tech.NMOS {
			passes++
		}
	}
	if passes != 2 {
		t.Fatalf("pass gate count %d", passes)
	}
}

func TestBufferSizingGrowsDevices(t *testing.T) {
	p1 := Precharge(tech.CDA07, 1)
	p2 := Precharge(tech.CDA07, 2)
	if !(p2.Transistors[0].W > p1.Transistors[0].W) {
		t.Fatal("bufSize should widen precharge devices")
	}
	i1 := Inv(tech.CDA07, 1)
	i3 := Inv(tech.CDA07, 2)
	if !(i3.Transistors[0].W > i1.Transistors[0].W) {
		t.Fatal("inverter sizing broken")
	}
}

func TestRowDecoderSlices(t *testing.T) {
	c := RowDecoderUnit(tech.CDA07, 7, 2)
	// 7 NAND slots (2 devices each) + inverter pair.
	if len(c.Transistors) != 16 {
		t.Fatalf("decoder transistors %d, want 16", len(c.Transistors))
	}
	// Height equal to the bit-cell height for row abutment.
	if c.Bounds().H() != SRAM6T(tech.CDA07).Bounds().H() {
		t.Fatal("decoder height must match the bit-cell height")
	}
	for i := 0; i < 7; i++ {
		if _, ok := c.Port("a" + string(rune('0'+i))); !ok {
			t.Errorf("missing address port a%d", i)
		}
	}
	if _, ok := c.Port("wl"); !ok {
		t.Fatal("missing wl port")
	}
}

func TestCAMCell(t *testing.T) {
	c := CAMCell(tech.CDA07)
	if len(c.Transistors) != 7 {
		t.Fatalf("CAM transistors %d, want 7", len(c.Transistors))
	}
	if _, ok := c.Port("ml"); !ok {
		t.Fatal("missing match-line port")
	}
	// CAM bit is bigger than a plain 6T bit (compare stack).
	if !(c.Area() > SRAM6T(tech.CDA07).Area()) {
		t.Fatal("CAM cell should exceed the 6T cell area")
	}
}

func TestPLACells(t *testing.T) {
	on := PLACrosspoint(tech.CDA07, true)
	off := PLACrosspoint(tech.CDA07, false)
	if len(on.Transistors) != 1 || len(off.Transistors) != 0 {
		t.Fatal("crosspoint programming wrong")
	}
	if on.Bounds() != off.Bounds() {
		t.Fatal("crosspoint variants must share a pitch")
	}
	pu := PLAPullup(tech.CDA07)
	if len(pu.Transistors) != 1 || pu.Transistors[0].Type != tech.PMOS {
		t.Fatal("pullup should be a single PMOS")
	}
}

func TestExtractIntoSpice(t *testing.T) {
	c := Inv(tech.CDA07, 1)
	ckt := spice.New()
	ckt.V("vdd", "xvdd", spice.DC(tech.CDA07.VDD))
	ckt.V("vin", "xa", spice.DC(0))
	c.Extract(ckt, "x")
	op, err := ckt.OP()
	if err != nil {
		t.Fatal(err)
	}
	// Extracted inverter with input low must drive output high.
	if op["xy"] < tech.CDA07.VDD*0.9 {
		t.Fatalf("extracted inverter output %.2f", op["xy"])
	}
	// Wire caps present for labelled nets.
	caps := c.WireCaps()
	if caps["vdd"] <= 0 || caps["gnd"] <= 0 {
		t.Fatal("rail wire caps missing")
	}
	deck := ckt.Deck("inv")
	if !strings.Contains(deck, "Mxmn") || !strings.Contains(deck, "Mxmp") {
		t.Fatalf("deck missing extracted devices:\n%s", deck)
	}
}

// TestExtractDeterministic: extracting the sense amplifier, the deck
// bisramgen writes as senseamp.sp, yields one deck run after run.
func TestExtractDeterministic(t *testing.T) {
	sa := lib(t).SenseAmp
	var first string
	for i := 0; i < 20; i++ {
		ckt := spice.New()
		sa.Extract(ckt, "x")
		deck := ckt.Deck("extracted current-mode sense amplifier")
		if i == 0 {
			first = deck
		} else if deck != first {
			t.Fatalf("extraction %d gave another deck:\n%s\nfirst:\n%s", i, deck, first)
		}
	}
}

func TestExtractedInverterSwitches(t *testing.T) {
	c := Inv(tech.CDA07, 2)
	ckt := spice.New()
	ckt.V("vdd", "xvdd", spice.DC(tech.CDA07.VDD))
	ckt.V("vin", "xa", spice.Step(0, tech.CDA07.VDD, 1e-9, 0.1e-9))
	c.Extract(ckt, "x")
	ckt.C("xy", "0", 20e-15)
	res, err := ckt.Transient(5e-9, 5e-12)
	if err != nil {
		t.Fatal(err)
	}
	d, err := res.PropDelay("xa", "xy", tech.CDA07.VDD, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > 2e-9 {
		t.Fatalf("extracted inverter delay %g", d)
	}
}

func TestGateLibraryTransistorCounts(t *testing.T) {
	l := lib(t)
	counts := map[string]int{
		l.Inv.Name: 2, l.Buf.Name: 4, l.Nand2.Name: 4, l.Nor2.Name: 4,
		l.Xor2.Name: 6, l.Mux2.Name: 6, l.DFF.Name: 14, l.Tribuf.Name: 4,
	}
	for _, c := range []*Cell{l.Inv, l.Buf, l.Nand2, l.Nor2, l.Xor2, l.Mux2, l.DFF, l.Tribuf} {
		if got := len(c.Transistors); got != counts[c.Name] {
			t.Errorf("%s: %d transistors, want %d", c.Name, got, counts[c.Name])
		}
	}
}

func TestSharedCellHeight(t *testing.T) {
	l := lib(t)
	h := l.SRAM.Bounds().H()
	for _, c := range []*Cell{l.Precharge, l.SenseAmp, l.WriteDrv, l.ColMux,
		l.CAM, l.Inv, l.Nand2, l.Nor2, l.Xor2, l.Mux2, l.DFF, l.Tribuf} {
		if c.Bounds().H() != h {
			t.Errorf("%s height %d != bit-cell height %d", c.Name, c.Bounds().H(), h)
		}
	}
}
