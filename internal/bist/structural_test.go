package bist

import (
	"fmt"
	"testing"

	"repro/internal/logicsim"
	"repro/internal/march"
	"repro/internal/sram"
)

// traceEntry is one recorded behavioural PLA cycle.
type traceEntry struct {
	state int
	conds uint64
	sigs  uint64
	next  int
}

// TestStructuralPLAEquivalence replays the full behavioural IFA-9
// test-and-repair run (on a faulty RAM, so the capture and unsucc
// paths are exercised) against the gate-level PLA and requires
// cycle-exact agreement of every control signal and state transition.
func TestStructuralPLAEquivalence(t *testing.T) {
	prog, err := Assemble(march.IFA9())
	if err != nil {
		t.Fatal(err)
	}
	a := sram.MustNew(sram.Config{Words: 16, BPW: 2, BPC: 2, SpareRows: 1})
	if err := a.Inject(sram.CellAddr{Row: 3, Col: 1}, sram.Fault{Kind: sram.SA1}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(prog, a, 2)
	var trace []traceEntry
	e.OnCycle = func(state int, conds, sigs uint64, next int) {
		trace = append(trace, traceEntry{state, conds, sigs, next})
	}
	if _, err := e.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("no trace recorded")
	}
	// Build and reset the structural PLA.
	s := logicsim.New()
	sp := BuildStructuralPLA(s, prog, "trpla")
	if err := sp.Reset(); err != nil {
		t.Fatal(err)
	}
	sawCapture, sawUnsucc := false, false
	for i, te := range trace {
		st, err := sp.State()
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if st != te.state {
			t.Fatalf("cycle %d: structural state %d, behavioural %d", i, st, te.state)
		}
		// The pass2 condition is internal structural state; verify it
		// matches the behavioural trace rather than driving it.
		wantPass2 := te.conds&(1<<CondPass2) != 0
		gotPass2 := s.Value(sp.Pass2Q) == logicsim.L1
		if wantPass2 != gotPass2 {
			t.Fatalf("cycle %d: pass2 mismatch (want %v)", i, wantPass2)
		}
		if err := sp.SetConds(te.conds); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		sigs, err := sp.ReadSigs()
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if sigs != te.sigs {
			t.Fatalf("cycle %d state %d conds %04b: structural sigs %014b, behavioural %014b",
				i, te.state, te.conds, sigs, te.sigs)
		}
		if sigs&(1<<SigCapture) != 0 {
			sawCapture = true
		}
		if sigs&(1<<SigUnsucc) != 0 {
			sawUnsucc = true
		}
		if err := sp.Clock(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if !sawCapture || !sawUnsucc {
		t.Fatalf("trace did not exercise capture (%v) and unsucc (%v) paths", sawCapture, sawUnsucc)
	}
}

// TestStructuralPLAMatchesEval builds the gate-level PLA from the
// assembled IFA-9 program and checks its combinational outputs against
// Eval for every state and condition.
func TestStructuralPLAMatchesEval(t *testing.T) {
	prog, err := Assemble(march.IFA9())
	if err != nil {
		t.Fatal(err)
	}
	s := logicsim.New()
	sp := BuildStructuralPLA(s, prog, "pla")
	if err := sp.Reset(); err != nil {
		t.Fatal(err)
	}
	for st := 0; st < 1<<uint(prog.StateBits); st++ {
		for c := uint64(0); c < 1<<NumConds; c++ {
			// Drive the state register outputs directly (bypassing the
			// flops) and the condition inputs; pass2 is internal, so
			// drive its net too.
			s.SetBus(sp.StateQ, uint64(st))
			s.Set(sp.Pass2Q, logicsim.Bool(c&(1<<CondPass2) != 0))
			if err := sp.SetConds(c); err != nil {
				t.Fatal(err)
			}
			gotSigs, err := sp.ReadSigs()
			if err != nil {
				t.Fatalf("state %d conds %04b: %v", st, c, err)
			}
			wantSigs, _ := prog.Eval(st, c)
			if gotSigs != wantSigs {
				t.Fatalf("state %d conds %04b: structural %014b vs eval %014b",
					st, c, gotSigs, wantSigs)
			}
		}
	}
}

// TestStructuralCountersMatchBehavioural checks the gate-level ADDGEN
// (binary up/down counter) and DATAGEN (Johnson counter) against their
// behavioural models step by step.
func TestStructuralCountersMatchBehavioural(t *testing.T) {
	const n = 4 // 16 addresses
	s := logicsim.New()
	rstN := s.Net("rstN")
	cnt := s.UpDownCounter("addgen", n, rstN)
	s.Set(rstN, logicsim.L0)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyResets(); err != nil {
		t.Fatal(err)
	}
	s.Set(rstN, logicsim.L1)
	s.Set(cnt.En, logicsim.L1)
	s.Set(cnt.Up, logicsim.L1)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}

	ag := NewAddGen(16)
	ag.Load(true)
	for i := 0; i < 40; i++ {
		v, ok := s.ReadBus(cnt.Q)
		if !ok {
			t.Fatalf("step %d: counter unknown", i)
		}
		if int(v) != ag.Value() {
			t.Fatalf("step %d: structural %d behavioural %d", i, v, ag.Value())
		}
		// Terminal count matches.
		wantTC := logicsim.Bool(ag.Terminal())
		if s.Value(cnt.Carry) != wantTC {
			t.Fatalf("step %d: tc mismatch", i)
		}
		ag.Step()
		if err := s.ClockEdge(); err != nil {
			t.Fatal(err)
		}
	}
	// Downward.
	s.Set(cnt.Up, logicsim.L0)
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	agv, _ := s.ReadBus(cnt.Q)
	down := NewAddGen(16)
	down.Load(false)
	// Align behavioural to structural current value.
	for down.Value() != int(agv) {
		down.Step()
	}
	for i := 0; i < 40; i++ {
		v, _ := s.ReadBus(cnt.Q)
		if int(v) != down.Value() {
			t.Fatalf("down step %d: structural %d behavioural %d", i, v, down.Value())
		}
		down.Step()
		if err := s.ClockEdge(); err != nil {
			t.Fatal(err)
		}
	}

	// Johnson counter vs DataGen backgrounds: the structural ring
	// visits each DataGen background (or its complement's partner)
	// in thermometer order over the first bpw+1 steps.
	const bpw = 4
	s2 := logicsim.New()
	r2 := s2.Net("rstN")
	j := s2.JohnsonCounter("datagen", bpw, r2)
	s2.Set(r2, logicsim.L0)
	if err := s2.Settle(); err != nil {
		t.Fatal(err)
	}
	if err := s2.ApplyResets(); err != nil {
		t.Fatal(err)
	}
	s2.Set(r2, logicsim.L1)
	s2.Set(j.En, logicsim.L1)
	if err := s2.Settle(); err != nil {
		t.Fatal(err)
	}
	dg := NewDataGen(bpw)
	dg.Load()
	for i := 0; i <= bpw; i++ {
		v, ok := s2.ReadBus(j.Q)
		if !ok {
			t.Fatal("johnson unknown")
		}
		if v != dg.Background() {
			t.Fatalf("background %d: structural %04b behavioural %04b", i, v, dg.Background())
		}
		dg.Step()
		if err := s2.ClockEdge(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStructuralComparator verifies the XOR/OR comparator netlist
// against DataGen.Compare.
func TestStructuralComparator(t *testing.T) {
	const bpw = 4
	s := logicsim.New()
	read := s.Bus("read", bpw)
	exp := s.Bus("exp", bpw)
	diffs := make([]int, bpw)
	for i := 0; i < bpw; i++ {
		diffs[i] = s.Net("d" + string(rune('0'+i)))
		s.Gate(logicsim.XOR, diffs[i], read[i], exp[i])
	}
	errNet := s.OrReduce("err", diffs)
	dg := NewDataGen(bpw)
	dg.Load()
	dg.Step() // background 0001
	for r := uint64(0); r < 16; r++ {
		s.SetBus(read, r)
		s.SetBus(exp, dg.Pattern(false))
		if err := s.Settle(); err != nil {
			t.Fatal(err)
		}
		want := logicsim.Bool(dg.Compare(r, false))
		if s.Value(errNet) != want {
			t.Fatalf("read %04b: structural %v behavioural %v", r, s.Value(errNet), want)
		}
	}
}

// The drivers below clock a standalone structural PLA for the tests;
// the gate-level controller drives the same nets itself.

// Reset drives and releases the asynchronous reset, leaving the PLA in
// state 0 with the pass-2 flag clear.
func (sp *StructuralPLA) Reset() error {
	s := sp.Sim
	s.Set(sp.RstN, logicsim.L0)
	s.Set(sp.TC, logicsim.L0)
	s.Set(sp.BGDone, logicsim.L0)
	s.Set(sp.Err, logicsim.L0)
	if err := s.Settle(); err != nil {
		return err
	}
	if err := s.ApplyResets(); err != nil {
		return err
	}
	s.Set(sp.RstN, logicsim.L1)
	return s.Settle()
}

// SetConds drives the condition inputs and settles the combinational
// planes.
func (sp *StructuralPLA) SetConds(conds uint64) error {
	s := sp.Sim
	s.Set(sp.TC, logicsim.Bool(conds&(1<<CondTC) != 0))
	s.Set(sp.BGDone, logicsim.Bool(conds&(1<<CondBGDone) != 0))
	s.Set(sp.Err, logicsim.Bool(conds&(1<<CondErr) != 0))
	// Pass2 is internal state; callers cannot drive it.
	return s.Settle()
}

// ReadSigs returns the current control-signal bitset.
func (sp *StructuralPLA) ReadSigs() (uint64, error) {
	var out uint64
	for i, n := range sp.Sigs {
		switch sp.Sim.Value(n) {
		case logicsim.L1:
			out |= 1 << uint(i)
		case logicsim.L0:
		default:
			return 0, fmt.Errorf("bist: signal %d is %v", i, sp.Sim.Value(n))
		}
	}
	return out, nil
}

// State returns the registered state value.
func (sp *StructuralPLA) State() (int, error) {
	v, ok := sp.Sim.ReadBus(sp.StateQ)
	if !ok {
		return 0, fmt.Errorf("bist: state register holds unknowns")
	}
	return int(v), nil
}

// Clock advances the state register one cycle.
func (sp *StructuralPLA) Clock() error { return sp.Sim.ClockEdge() }
