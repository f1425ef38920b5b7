package bist

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/march"
	"repro/internal/sram"
)

func TestAddGen(t *testing.T) {
	g := NewAddGen(8)
	g.Load(true)
	if g.Value() != 0 || g.Terminal() {
		t.Fatal("up load wrong")
	}
	for i := 1; i < 8; i++ {
		g.Step()
		if g.Value() != i {
			t.Fatalf("step %d: %d", i, g.Value())
		}
	}
	if !g.Terminal() {
		t.Fatal("should be terminal at 7")
	}
	g.Step()
	if g.Value() != 0 {
		t.Fatal("up wrap failed")
	}
	g.Load(false)
	if g.Value() != 7 || g.Terminal() {
		t.Fatal("down load wrong")
	}
	for i := 6; i >= 0; i-- {
		g.Step()
		if g.Value() != i {
			t.Fatalf("down step: %d", g.Value())
		}
	}
	if !g.Terminal() {
		t.Fatal("should be terminal at 0")
	}
	g.Step()
	if g.Value() != 7 {
		t.Fatal("down wrap failed")
	}
}

func TestDataGen(t *testing.T) {
	g := NewDataGen(4)
	g.Load()
	want := []uint64{0b0000, 0b0001, 0b0011, 0b0111, 0b1111}
	for i, w := range want {
		if g.Background() != w {
			t.Fatalf("bg %d = %04b want %04b", i, g.Background(), w)
		}
		if g.Done() != (i == len(want)-1) {
			t.Fatalf("done flag wrong at %d", i)
		}
		g.Step()
	}
	if g.Background() != 0 {
		t.Fatal("wrap failed")
	}
	g.Load()
	g.Step()
	if g.Pattern(false) != 0b0001 || g.Pattern(true) != 0b1110 {
		t.Fatalf("patterns %04b %04b", g.Pattern(false), g.Pattern(true))
	}
	if g.Compare(0b0001, false) || !g.Compare(0b0011, false) {
		t.Fatal("comparator wrong")
	}
	if g.Compare(0b1110, true) || !g.Compare(0b1111, true) {
		t.Fatal("inverted comparator wrong")
	}
	if len(g.bgs) != 5 {
		t.Fatal("background export wrong")
	}
}

func TestAssembleShape(t *testing.T) {
	p, err := Assemble(march.IFA9())
	if err != nil {
		t.Fatal(err)
	}
	// IFA-9: 1 INIT + 6 extra elemInits + 12 ops + bg + done = 21.
	if p.NumStates != 21 {
		t.Fatalf("IFA-9 states = %d, want 21", p.NumStates)
	}
	if p.StateBits != 5 {
		t.Fatalf("state bits = %d, want 5", p.StateBits)
	}
	if len(p.Terms) == 0 {
		t.Fatal("no terms")
	}
	// Paper: controller fits in 6 flip-flops (59 states); ours must
	// also fit in <= 6.
	if p.StateBits > 6 {
		t.Fatalf("state register exceeds the paper's 6 flip-flops: %d", p.StateBits)
	}
	if _, err := Assemble(march.Test{Name: "empty"}); err == nil {
		t.Fatal("empty test must fail to assemble")
	}
}

func newRAM(t *testing.T) *sram.Array {
	t.Helper()
	return sram.MustNew(sram.Config{Words: 32, BPW: 4, BPC: 4, SpareRows: 2})
}

func TestEngineFaultFree(t *testing.T) {
	p, err := Assemble(march.IFA9())
	if err != nil {
		t.Fatal(err)
	}
	a := newRAM(t)
	e := NewEngine(p, a, 4)
	var pass2Fired int
	e.OnPass2 = func() { pass2Fired++ }
	stats, err := e.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Captures != 0 || stats.Unsucc {
		t.Fatalf("fault-free run captured %d, unsucc=%v", stats.Captures, stats.Unsucc)
	}
	if pass2Fired != 1 {
		t.Fatalf("pass2 fired %d times", pass2Fired)
	}
	// Each pass applies 12 ops x 32 words x 5 backgrounds = 1920 ops;
	// two passes = 3840 = reads+writes.
	if got := stats.Reads + stats.Writes; got != 3840 {
		t.Fatalf("op count %d, want 3840", got)
	}
	// IFA-9 has 2 delay elements x 5 backgrounds x 2 passes = 20.
	if stats.Delays != 20 {
		t.Fatalf("delays %d, want 20", stats.Delays)
	}
}

func TestEngineMatchesMarchRun(t *testing.T) {
	// The microprogrammed engine must apply exactly the same ops as
	// the direct march interpreter.
	p, err := Assemble(march.IFA9())
	if err != nil {
		t.Fatal(err)
	}
	a := newRAM(t)
	e := NewEngine(p, a, 4)
	stats, err := e.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	b := newRAM(t)
	res := march.Run(b, march.IFA9(), march.JohnsonBackgrounds(4), 4)
	// Engine runs two passes.
	if stats.Reads+stats.Writes != 2*res.Operations {
		t.Fatalf("engine ops %d, march ops %d", stats.Reads+stats.Writes, 2*res.Operations)
	}
}

func TestEngineCapturesAndUnsucc(t *testing.T) {
	p, err := Assemble(march.IFA9())
	if err != nil {
		t.Fatal(err)
	}
	a := newRAM(t)
	// Stuck-at fault in word 5 (row 1, colsel 1, bit 0 -> col 1).
	if err := a.Inject(sram.CellAddr{Row: 1, Col: 1}, sram.Fault{Kind: sram.SA1}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p, a, 4)
	var caps []Capture
	e.OnCapture = func(c Capture) { caps = append(caps, c) }
	stats, err := e.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Captures == 0 {
		t.Fatal("no pass-1 captures for stuck-at fault")
	}
	for _, c := range caps {
		if c.Addr != 5 {
			t.Fatalf("captured wrong address %d", c.Addr)
		}
	}
	// No TLB repair attached: pass 2 sees the same fault -> unsuccessful.
	if !stats.Unsucc {
		t.Fatal("unrepaired fault must flag Repair Unsuccessful")
	}
}

func TestPlaneFileRoundTrip(t *testing.T) {
	p, err := Assemble(march.IFA9())
	if err != nil {
		t.Fatal(err)
	}
	var andB, orB bytes.Buffer
	if err := p.WritePlanes(&andB, &orB); err != nil {
		t.Fatal(err)
	}
	if andB.Len() == 0 || orB.Len() == 0 {
		t.Fatal("empty plane files")
	}
	q, err := ReadPlanes("IFA-9", p.StateBits, &andB, &orB)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Terms) != len(p.Terms) {
		t.Fatalf("term count changed: %d -> %d", len(p.Terms), len(q.Terms))
	}
	// Exhaustive evaluation equivalence over all states and condition
	// combinations.
	for st := 0; st < p.NumStates; st++ {
		for c := uint64(0); c < 1<<NumConds; c++ {
			s1, n1 := p.Eval(st, c)
			s2, n2 := q.Eval(st, c)
			if s1 != s2 || n1 != n2 {
				t.Fatalf("state %d conds %04b: (%x,%d) vs (%x,%d)", st, c, s1, n1, s2, n2)
			}
		}
	}
}

func TestReadPlanesErrors(t *testing.T) {
	if _, err := ReadPlanes("x", 5, strings.NewReader("101\n"), strings.NewReader("")); err == nil {
		t.Fatal("row-count mismatch accepted")
	}
	// Wrong width.
	if _, err := ReadPlanes("x", 5, strings.NewReader("10\n"), strings.NewReader("1\n")); err == nil {
		t.Fatal("bad widths accepted")
	}
	// Bad character.
	and := strings.Repeat("z", 5+NumConds) + "\n"
	or := strings.Repeat("0", NumSigs+5) + "\n"
	if _, err := ReadPlanes("x", 5, strings.NewReader(and), strings.NewReader(or)); err == nil {
		t.Fatal("bad AND char accepted")
	}
	// Comments and blanks are skipped.
	andOK := "# comment\n\n" + strings.Repeat("-", 5+NumConds) + "\n"
	orOK := strings.Repeat("0", NumSigs+5) + "\n"
	if _, err := ReadPlanes("x", 5, strings.NewReader(andOK), strings.NewReader(orOK)); err != nil {
		t.Fatal(err)
	}
}

func TestRunCycleGuard(t *testing.T) {
	p, err := Assemble(march.IFA9())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p, newRAM(t), 4)
	if _, err := e.Run(10); err == nil {
		t.Fatal("tiny cycle budget should error, not hang")
	}
}

// Property: for every state, Eval's next state never depends on the
// err condition (the engine's two-phase Mealy evaluation relies on
// this).
func TestQuickNextStateErrIndependent(t *testing.T) {
	p, err := Assemble(march.IFA13())
	if err != nil {
		t.Fatal(err)
	}
	f := func(stSel uint8, c uint8) bool {
		st := int(stSel) % p.NumStates
		conds := uint64(c) & (1<<NumConds - 1)
		_, n1 := p.Eval(st, conds&^(1<<CondErr))
		_, n2 := p.Eval(st, conds|1<<CondErr)
		return n1 == n2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every reachable state has exactly one asserted next state
// under any condition combination (no state-bit clashes from
// overlapping terms).
func TestQuickDeterministicNextState(t *testing.T) {
	p, err := Assemble(march.IFA9())
	if err != nil {
		t.Fatal(err)
	}
	for st := 0; st < p.NumStates; st++ {
		for c := uint64(0); c < 1<<NumConds; c++ {
			// Count terms asserting state bits; ORing two different
			// next states would corrupt the machine.
			var nexts []int
			for _, tm := range p.Terms {
				in := uint64(st) | c<<uint(p.StateBits)
				if in&tm.Mask == tm.Val && tm.Out>>NumSigs != 0 {
					nexts = append(nexts, int(tm.Out>>NumSigs))
				}
			}
			if len(nexts) > 1 {
				for _, n := range nexts[1:] {
					if n != nexts[0] {
						t.Fatalf("state %d conds %04b has conflicting next states %v", st, c, nexts)
					}
				}
			}
		}
	}
}
