package march

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sram"
)

func newArr(t *testing.T) *sram.Array {
	t.Helper()
	return sram.MustNew(sram.Config{Words: 64, BPW: 4, BPC: 4, SpareRows: 2})
}

func TestNotationString(t *testing.T) {
	s := IFA9().String()
	for _, want := range []string{"IFA-9", "⇑(r0,w1)", "⇓(r1,w0)", "Del;"} {
		if !strings.Contains(s, want) {
			t.Errorf("notation missing %q: %s", want, s)
		}
	}
	if !strings.Contains(MATSPlus().String(), "⇕(") {
		t.Error("MATS+ should start with ⇕")
	}
}

func TestOpCounts(t *testing.T) {
	// IFA-9: 1 + 2+2+2+2 + 2 + 1 = 12 ops/address/background.
	if got := IFA9().OpCount(); got != 12 {
		t.Fatalf("IFA-9 op count %d, want 12", got)
	}
	// IFA-13: 1 + 3+3+3+3 + 2 + 1 = 16.
	if got := IFA13().OpCount(); got != 16 {
		t.Fatalf("IFA-13 op count %d, want 16", got)
	}
	if got := MATSPlus().OpCount(); got != 5 {
		t.Fatalf("MATS+ op count %d, want 5", got)
	}
	if got := MarchCMinus().OpCount(); got != 10 {
		t.Fatalf("March C- op count %d, want 10", got)
	}
}

func TestFaultFreePasses(t *testing.T) {
	a := newArr(t)
	for _, test := range []Test{IFA9(), IFA13(), MATSPlus(), MarchCMinus()} {
		res := Run(a, test, JohnsonBackgrounds(4), 4)
		if !res.Pass() {
			t.Errorf("%s failed on fault-free array: %v", test.Name, res.Failures[0])
		}
		if res.Operations == 0 {
			t.Errorf("%s ran no operations", test.Name)
		}
	}
}

func TestDetectsStuckAt(t *testing.T) {
	for _, k := range []sram.FaultKind{sram.SA0, sram.SA1} {
		a := newArr(t)
		if err := a.Inject(sram.CellAddr{Row: 2, Col: 5}, sram.Fault{Kind: k}); err != nil {
			t.Fatal(err)
		}
		res := Run(a, IFA9(), JohnsonBackgrounds(4), 4)
		if res.Pass() {
			t.Errorf("IFA-9 missed %v", k)
		}
		// The failing address must be the word owning (row2, col5):
		// col 5 = bit 1 * bpc + colsel 1 -> addr = 2*4+1 = 9.
		addrs := res.FailedAddrs()
		found := false
		for _, ad := range addrs {
			if ad == 9 {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: failing addrs %v missing 9", k, addrs)
		}
	}
}

func TestDetectsTransition(t *testing.T) {
	for _, k := range []sram.FaultKind{sram.TFU, sram.TFD} {
		a := newArr(t)
		if err := a.Inject(sram.CellAddr{Row: 0, Col: 0}, sram.Fault{Kind: k}); err != nil {
			t.Fatal(err)
		}
		if res := Run(a, IFA9(), JohnsonBackgrounds(4), 4); res.Pass() {
			t.Errorf("IFA-9 missed %v", k)
		}
	}
}

func TestDetectsRetentionOnlyWithDelayTests(t *testing.T) {
	a := newArr(t)
	if err := a.Inject(sram.CellAddr{Row: 1, Col: 1}, sram.Fault{Kind: sram.DRF0}); err != nil {
		t.Fatal(err)
	}
	if res := Run(a, MarchCMinus(), JohnsonBackgrounds(4), 4); !res.Pass() {
		t.Error("March C- (no delay) should miss pure retention faults")
	}
	if res := Run(a, IFA9(), JohnsonBackgrounds(4), 4); res.Pass() {
		t.Error("IFA-9 should catch DRF0 via its delay elements")
	}
	b := newArr(t)
	if err := b.Inject(sram.CellAddr{Row: 1, Col: 1}, sram.Fault{Kind: sram.DRF1}); err != nil {
		t.Fatal(err)
	}
	if res := Run(b, IFA9(), JohnsonBackgrounds(4), 4); res.Pass() {
		t.Error("IFA-9 should catch DRF1")
	}
}

func TestIFA13CatchesStuckOpen(t *testing.T) {
	a := newArr(t)
	if err := a.Inject(sram.CellAddr{Row: 3, Col: 2}, sram.Fault{Kind: sram.SOF}); err != nil {
		t.Fatal(err)
	}
	if res := Run(a, IFA13(), JohnsonBackgrounds(4), 4); res.Pass() {
		t.Error("IFA-13 read-after-write should catch SOF")
	}
}

func TestDetectsInterWordCoupling(t *testing.T) {
	// Coupling between cells in different words (same column, adjacent
	// rows) is caught by the march order of IFA-9.
	a := newArr(t)
	err := a.Inject(sram.CellAddr{Row: 0, Col: 0},
		sram.Fault{Kind: sram.CFID, Aggressor: sram.CellAddr{Row: 1, Col: 0}, AggrRise: true, Forced: true})
	if err != nil {
		t.Fatal(err)
	}
	if res := Run(a, IFA9(), JohnsonBackgrounds(4), 4); res.Pass() {
		t.Error("IFA-9 missed inter-word CFID")
	}
	b := newArr(t)
	err = b.Inject(sram.CellAddr{Row: 0, Col: 0},
		sram.Fault{Kind: sram.CFIN, Aggressor: sram.CellAddr{Row: 1, Col: 0}, AggrRise: false})
	if err != nil {
		t.Fatal(err)
	}
	if res := Run(b, IFA9(), JohnsonBackgrounds(4), 4); res.Pass() {
		t.Error("IFA-9 missed inter-word CFIN")
	}
	c := newArr(t)
	err = c.Inject(sram.CellAddr{Row: 0, Col: 0},
		sram.Fault{Kind: sram.CFST, Aggressor: sram.CellAddr{Row: 1, Col: 0}, AggrRise: true, Forced: false})
	if err != nil {
		t.Fatal(err)
	}
	if res := Run(c, IFA9(), JohnsonBackgrounds(4), 4); res.Pass() {
		t.Error("IFA-9 missed inter-word CFST")
	}
}

func TestIntraWordCouplingNeedsBackgrounds(t *testing.T) {
	// Coupling between two bits of the SAME word: with a single all-0
	// background, both cells always carry the same value and idempotent
	// coupling <rise; force-1> can stay hidden; the Johnson backgrounds
	// separate them. This is the paper's argument for DATAGEN.
	build := func() *sram.Array {
		a := sram.MustNew(sram.Config{Words: 64, BPW: 8, BPC: 4, SpareRows: 0})
		// Victim bit 2, aggressor bit 5 of the same word 0:
		// cols 2*4+0=8 and 5*4+0=20, row 0.
		err := a.Inject(sram.CellAddr{Row: 0, Col: 8},
			sram.Fault{Kind: sram.CFID, Aggressor: sram.CellAddr{Row: 0, Col: 20}, AggrRise: true, Forced: true})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	single := Run(build(), IFA9(), SingleBackground(), 8)
	johnson := Run(build(), IFA9(), JohnsonBackgrounds(8), 8)
	if !johnson.Pass() == false && single.Pass() == false {
		// Both caught it: acceptable but surprising; require at least
		// that Johnson catches it.
		t.Log("single background caught intra-word CFID too")
	}
	if johnson.Pass() {
		t.Error("Johnson backgrounds must catch intra-word CFID")
	}
	if !single.Pass() {
		t.Log("note: single background also caught this fault instance")
	}
}

func TestAdditionalMarches(t *testing.T) {
	if got := MarchX().OpCount(); got != 6 {
		t.Fatalf("March X op count %d, want 6", got)
	}
	if got := MarchY().OpCount(); got != 8 {
		t.Fatalf("March Y op count %d, want 8", got)
	}
	if got := MarchB().OpCount(); got != 17 {
		t.Fatalf("March B op count %d, want 17", got)
	}
	if len(AllTests()) != 7 {
		t.Fatalf("AllTests count %d", len(AllTests()))
	}
	// All pass on a fault-free array and detect a stuck-at fault.
	for _, test := range AllTests() {
		clean := newArr(t)
		if !Run(clean, test, JohnsonBackgrounds(4), 4).Pass() {
			t.Errorf("%s failed on fault-free array", test.Name)
		}
		dirty := newArr(t)
		if err := dirty.Inject(sram.CellAddr{Row: 3, Col: 3}, sram.Fault{Kind: sram.SA0}); err != nil {
			t.Fatal(err)
		}
		if Run(dirty, test, JohnsonBackgrounds(4), 4).Pass() {
			t.Errorf("%s missed a stuck-at fault", test.Name)
		}
	}
	// March X/Y detect address decoder faults via the closing read.
	for _, test := range []Test{MarchX(), MarchY()} {
		af := newArr(t)
		if err := af.InjectAddressFault(10, 40); err != nil {
			t.Fatal(err)
		}
		if Run(af, test, JohnsonBackgrounds(4), 4).Pass() {
			t.Errorf("%s missed an address fault", test.Name)
		}
	}
}

func TestFailedAddrsDedup(t *testing.T) {
	r := &Result{Failures: []Failure{{Addr: 3}, {Addr: 3}, {Addr: 1}}}
	got := r.FailedAddrs()
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Fatalf("FailedAddrs = %v", got)
	}
}

func TestJohnsonBackgrounds(t *testing.T) {
	bg := JohnsonBackgrounds(4)
	want := []uint64{0b0000, 0b0001, 0b0011, 0b0111, 0b1111}
	if len(bg) != len(want) {
		t.Fatalf("got %d backgrounds, want %d", len(bg), len(want))
	}
	for i := range want {
		if bg[i] != want[i] {
			t.Fatalf("bg[%d] = %04b, want %04b", i, bg[i], want[i])
		}
	}
	// Every adjacent bit pair sees all four value combinations across
	// backgrounds and their complements (the pairwise coupling
	// argument from the paper).
	for b := 0; b < 3; b++ {
		seen := map[[2]bool]bool{}
		for _, g := range bg {
			for _, pat := range []uint64{g, ^g} {
				seen[[2]bool{pat>>uint(b)&1 == 1, pat>>uint(b+1)&1 == 1}] = true
			}
		}
		if len(seen) != 4 {
			t.Fatalf("bit pair (%d,%d) sees only %d combinations", b, b+1, len(seen))
		}
	}
}

// Property: every march test leaves a fault-free memory passing, for
// random geometries.
func TestQuickFaultFreeAnyGeometry(t *testing.T) {
	f := func(wsel, bsel, csel uint8) bool {
		words := []int{16, 32, 64}[int(wsel)%3]
		bpw := []int{2, 4, 8}[int(bsel)%3]
		bpc := []int{2, 4}[int(csel)%2]
		a := sram.MustNew(sram.Config{Words: words, BPW: bpw, BPC: bpc})
		return Run(a, IFA9(), JohnsonBackgrounds(bpw), bpw).Pass()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: injecting a stuck-at fault is always detected by IFA-9
// regardless of position.
func TestQuickStuckAtAlwaysDetected(t *testing.T) {
	f := func(rowSel, colSel uint8, one bool) bool {
		a := sram.MustNew(sram.Config{Words: 64, BPW: 4, BPC: 4})
		row := int(rowSel) % a.Config().Rows()
		col := int(colSel) % a.Config().Cols()
		k := sram.SA0
		if one {
			k = sram.SA1
		}
		if err := a.Inject(sram.CellAddr{Row: row, Col: col}, sram.Fault{Kind: k}); err != nil {
			return false
		}
		return !Run(a, IFA9(), JohnsonBackgrounds(4), 4).Pass()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
