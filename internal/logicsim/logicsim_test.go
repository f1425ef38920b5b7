package logicsim

import (
	"testing"
	"testing/quick"
)

func mustSettle(t *testing.T, s *Sim) {
	t.Helper()
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
}

func TestFourValueOps(t *testing.T) {
	if Not(L0) != L1 || Not(L1) != L0 || Not(X) != X || Not(Z) != X {
		t.Fatal("Not table wrong")
	}
	if and2(L0, X) != L0 {
		t.Fatal("0 AND X must be 0")
	}
	if and2(L1, X) != X {
		t.Fatal("1 AND X must be X")
	}
	if or2(L1, X) != L1 {
		t.Fatal("1 OR X must be 1")
	}
	if or2(L0, X) != X {
		t.Fatal("0 OR X must be X")
	}
	if xor2(L1, X) != X {
		t.Fatal("XOR with X must be X")
	}
	if Bool(true) != L1 || Bool(false) != L0 {
		t.Fatal("Bool conversion wrong")
	}
}

func TestBasicGates(t *testing.T) {
	type tc struct {
		k    Kind
		a, b Value
		want Value
	}
	cases := []tc{
		{AND, L1, L1, L1}, {AND, L1, L0, L0},
		{OR, L0, L0, L0}, {OR, L0, L1, L1},
		{NAND, L1, L1, L0}, {NOR, L0, L0, L1},
		{XOR, L1, L0, L1}, {XOR, L1, L1, L0},
		{XNOR, L1, L1, L1}, {XNOR, L1, L0, L0},
	}
	for _, c := range cases {
		s := New()
		a, b, o := s.Net("a"), s.Net("b"), s.Net("o")
		s.Gate(c.k, o, a, b)
		s.Set(a, c.a)
		s.Set(b, c.b)
		mustSettle(t, s)
		if got := s.Value(o); got != c.want {
			t.Errorf("%v(%v,%v) = %v, want %v", c.k, c.a, c.b, got, c.want)
		}
	}
}

func TestWideGates(t *testing.T) {
	s := New()
	in := s.Bus("in", 5)
	o := s.Net("o")
	s.Gate(AND, o, in...)
	s.SetBus(in, 0b11111)
	mustSettle(t, s)
	if s.Value(o) != L1 {
		t.Fatal("wide AND of all ones should be 1")
	}
	s.SetBus(in, 0b11011)
	mustSettle(t, s)
	if s.Value(o) != L0 {
		t.Fatal("wide AND with a zero should be 0")
	}
}

func TestMuxAndTribuf(t *testing.T) {
	s := New()
	sel, a, b, o := s.Net("sel"), s.Net("a"), s.Net("b"), s.Net("o")
	s.Gate(MUX2, o, sel, a, b)
	s.Set(a, L0)
	s.Set(b, L1)
	s.Set(sel, L0)
	mustSettle(t, s)
	if s.Value(o) != L0 {
		t.Fatal("mux sel=0 should pick a")
	}
	s.Set(sel, L1)
	mustSettle(t, s)
	if s.Value(o) != L1 {
		t.Fatal("mux sel=1 should pick b")
	}
	// X select with equal inputs is defined.
	s.Set(a, L1)
	s.Set(sel, X)
	mustSettle(t, s)
	if s.Value(o) != L1 {
		t.Fatal("mux X-sel with equal inputs should propagate the value")
	}

	s2 := New()
	en, d, q := s2.Net("en"), s2.Net("d"), s2.Net("q")
	s2.Gate(TRIBUF, q, en, d)
	s2.Set(d, L1)
	s2.Set(en, L0)
	mustSettle(t, s2)
	if s2.Value(q) != Z {
		t.Fatal("disabled tristate should be Z")
	}
	s2.Set(en, L1)
	mustSettle(t, s2)
	if s2.Value(q) != L1 {
		t.Fatal("enabled tristate should pass data")
	}
}

func TestDFFAndReset(t *testing.T) {
	s := New()
	d, q, rstN := s.Net("d"), s.Net("q"), s.Net("rstN")
	s.DFF(d, q, rstN)
	s.Set(rstN, L0)
	s.Set(d, L1)
	mustSettle(t, s)
	if err := s.ApplyResets(); err != nil {
		t.Fatal(err)
	}
	if s.Value(q) != L0 {
		t.Fatal("reset should force q=0")
	}
	// Reset held: clocking keeps 0.
	if err := s.ClockEdge(); err != nil {
		t.Fatal(err)
	}
	if s.Value(q) != L0 {
		t.Fatal("clock under reset should keep q=0")
	}
	s.Set(rstN, L1)
	mustSettle(t, s)
	if err := s.ClockEdge(); err != nil {
		t.Fatal(err)
	}
	if s.Value(q) != L1 {
		t.Fatal("q should capture d=1")
	}
}

func TestShiftRegisterRaceFree(t *testing.T) {
	// q0 -> q1 -> q2 chain must shift exactly one stage per edge.
	s := New()
	rstN := s.Net("rstN")
	in := s.Net("in")
	q0, q1, q2 := s.Net("q0"), s.Net("q1"), s.Net("q2")
	s.DFF(in, q0, rstN)
	s.DFF(q0, q1, rstN)
	s.DFF(q1, q2, rstN)
	s.Set(rstN, L0)
	mustSettle(t, s)
	if err := s.ApplyResets(); err != nil {
		t.Fatal(err)
	}
	s.Set(rstN, L1)
	s.Set(in, L1)
	mustSettle(t, s)
	if err := s.ClockEdge(); err != nil {
		t.Fatal(err)
	}
	if s.Value(q0) != L1 || s.Value(q1) != L0 || s.Value(q2) != L0 {
		t.Fatalf("after 1 edge: %v %v %v", s.Value(q0), s.Value(q1), s.Value(q2))
	}
	s.Set(in, L0)
	mustSettle(t, s)
	if err := s.ClockEdge(); err != nil {
		t.Fatal(err)
	}
	if s.Value(q0) != L0 || s.Value(q1) != L1 || s.Value(q2) != L0 {
		t.Fatalf("after 2 edges: %v %v %v", s.Value(q0), s.Value(q1), s.Value(q2))
	}
}

func TestOscillationDetected(t *testing.T) {
	s := New()
	a := s.Net("a")
	s.Gate(NOT, a, a) // combinational loop
	s.Set(a, L0)
	if err := s.Settle(); err == nil {
		t.Fatal("ring oscillator should not settle")
	}
}

func TestBusHelpers(t *testing.T) {
	s := New()
	b := s.Bus("data", 8)
	s.SetBus(b, 0xA5)
	mustSettle(t, s)
	v, ok := s.ReadBus(b)
	if !ok || v != 0xA5 {
		t.Fatalf("bus roundtrip: %x ok=%v", v, ok)
	}
	// Unknown bit poisons the read.
	s.Set(b[3], X)
	mustSettle(t, s)
	if _, ok := s.ReadBus(b); ok {
		t.Fatal("X bit should make ReadBus not-ok")
	}
}

func TestReduceTrees(t *testing.T) {
	s := New()
	in := s.Bus("in", 7)
	oo := s.OrReduce("o", in)
	ao := s.AndReduce("a", in)
	s.SetBus(in, 0b1011001) // 4 ones
	mustSettle(t, s)
	if s.Value(oo) != L1 || s.Value(ao) != L0 {
		t.Fatal("or/and reduce wrong")
	}
	s.SetBus(in, 0b1111111)
	mustSettle(t, s)
	if s.Value(ao) != L1 {
		t.Fatal("and of all ones should be 1")
	}
	s.SetBus(in, 0)
	mustSettle(t, s)
	if s.Value(oo) != L0 {
		t.Fatal("or of zeros should be 0")
	}
}

func TestDecoder(t *testing.T) {
	s := New()
	addr := s.Bus("a", 3)
	en := s.Net("en")
	outs := s.Decoder("dec", addr, en)
	s.Set(en, L1)
	for v := 0; v < 8; v++ {
		s.SetBus(addr, uint64(v))
		mustSettle(t, s)
		for i, o := range outs {
			want := L0
			if i == v {
				want = L1
			}
			if s.Value(o) != want {
				t.Fatalf("decoder addr=%d out[%d]=%v", v, i, s.Value(o))
			}
		}
	}
	s.Set(en, L0)
	mustSettle(t, s)
	for i, o := range outs {
		if s.Value(o) != L0 {
			t.Fatalf("disabled decoder out[%d]=%v", i, s.Value(o))
		}
	}
}

func TestEqComparator(t *testing.T) {
	s := New()
	a := s.Bus("a", 6)
	b := s.Bus("b", 6)
	eq := s.EqComparator("cmp", a, b)
	s.SetBus(a, 33)
	s.SetBus(b, 33)
	mustSettle(t, s)
	if s.Value(eq) != L1 {
		t.Fatal("equal buses should compare equal")
	}
	s.SetBus(b, 32)
	mustSettle(t, s)
	if s.Value(eq) != L0 {
		t.Fatal("unequal buses should compare unequal")
	}
}

func TestUpDownCounter(t *testing.T) {
	s := New()
	rstN := s.Net("rstN")
	c := s.UpDownCounter("cnt", 4, rstN)
	s.Set(rstN, L0)
	mustSettle(t, s)
	if err := s.ApplyResets(); err != nil {
		t.Fatal(err)
	}
	s.Set(rstN, L1)
	s.Set(c.En, L1)
	s.Set(c.Up, L1)
	mustSettle(t, s)
	for want := uint64(1); want <= 17; want++ {
		if err := s.ClockEdge(); err != nil {
			t.Fatal(err)
		}
		v, ok := s.ReadBus(c.Q)
		if !ok || v != want%16 {
			t.Fatalf("up count step %d: got %d ok=%v", want, v, ok)
		}
	}
	// Now count down from 1 -> 0 -> 15.
	s.Set(c.Up, L0)
	mustSettle(t, s)
	if err := s.ClockEdge(); err != nil {
		t.Fatal(err)
	}
	v, _ := s.ReadBus(c.Q)
	if v != 0 {
		t.Fatalf("down from 1: got %d", v)
	}
	if s.Value(c.Carry) != L1 {
		t.Fatal("terminal count (all zeros, down) should assert")
	}
	if err := s.ClockEdge(); err != nil {
		t.Fatal(err)
	}
	v, _ = s.ReadBus(c.Q)
	if v != 15 {
		t.Fatalf("down wrap: got %d", v)
	}
	// Disable freezes.
	s.Set(c.En, L0)
	mustSettle(t, s)
	if err := s.ClockEdge(); err != nil {
		t.Fatal(err)
	}
	v, _ = s.ReadBus(c.Q)
	if v != 15 {
		t.Fatalf("disabled counter moved: %d", v)
	}
}

func TestCounterSynchronousLoad(t *testing.T) {
	s := New()
	rstN := s.Net("rstN")
	c := s.UpDownCounter("cnt", 4, rstN)
	s.Set(rstN, L1)
	s.Set(c.En, L1)
	s.Set(c.Up, L1)
	s.SetBus(c.Q, 9)
	mustSettle(t, s)
	// Load while counting up -> 0.
	s.Set(c.Load, L1)
	mustSettle(t, s)
	if err := s.ClockEdge(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.ReadBus(c.Q); v != 0 {
		t.Fatalf("up load -> %d, want 0", v)
	}
	// Load while counting down -> max.
	s.Set(c.Up, L0)
	mustSettle(t, s)
	if err := s.ClockEdge(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.ReadBus(c.Q); v != 15 {
		t.Fatalf("down load -> %d, want 15", v)
	}
	// Release load: counts normally again.
	s.Set(c.Load, L0)
	mustSettle(t, s)
	if err := s.ClockEdge(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.ReadBus(c.Q); v != 14 {
		t.Fatalf("after load, down count -> %d, want 14", v)
	}
}

func TestJohnsonSynchronousLoad(t *testing.T) {
	s := New()
	rstN := s.Net("rstN")
	j := s.JohnsonCounter("jc", 4, rstN)
	s.Set(rstN, L1)
	s.Set(j.En, L1)
	s.SetBus(j.Q, 0b0111)
	mustSettle(t, s)
	s.Set(j.Load, L1)
	mustSettle(t, s)
	if err := s.ClockEdge(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.ReadBus(j.Q); v != 0 {
		t.Fatalf("johnson load -> %04b, want 0", v)
	}
	s.Set(j.Load, L0)
	mustSettle(t, s)
	if err := s.ClockEdge(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.ReadBus(j.Q); v != 0b0001 {
		t.Fatalf("after load -> %04b, want 0001", v)
	}
}

func TestJohnsonCounterSequence(t *testing.T) {
	const n = 4
	s := New()
	rstN := s.Net("rstN")
	j := s.JohnsonCounter("jc", n, rstN)
	s.Set(rstN, L0)
	mustSettle(t, s)
	if err := s.ApplyResets(); err != nil {
		t.Fatal(err)
	}
	s.Set(rstN, L1)
	s.Set(j.En, L1)
	mustSettle(t, s)
	want := []uint64{0b0001, 0b0011, 0b0111, 0b1111, 0b1110, 0b1100, 0b1000, 0b0000}
	for i, w := range want {
		if err := s.ClockEdge(); err != nil {
			t.Fatal(err)
		}
		v, ok := s.ReadBus(j.Q)
		if !ok || v != w {
			t.Fatalf("johnson step %d: got %04b want %04b", i, v, w)
		}
	}
	// Period is exactly 2n and all 2n states are distinct.
	seen := map[uint64]bool{}
	for i := 0; i < 2*n; i++ {
		v, _ := s.ReadBus(j.Q)
		if seen[v] {
			t.Fatalf("repeated johnson state %04b", v)
		}
		seen[v] = true
		if err := s.ClockEdge(); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 2*n {
		t.Fatalf("johnson visited %d states, want %d", len(seen), 2*n)
	}
}

// Property: the up/down counter implements +1/-1 mod 2^n from any
// starting state.
func TestQuickCounterStep(t *testing.T) {
	s := New()
	rstN := s.Net("rstN")
	c := s.UpDownCounter("cnt", 6, rstN)
	s.Set(rstN, L1)
	s.Set(c.En, L1)
	mustSettle(t, s)
	f := func(start uint8, up bool) bool {
		v0 := uint64(start) % 64
		// Force state by loading flops directly via reset-then-count is
		// slow; instead drive Q nets externally then clock.
		s.SetBus(c.Q, v0)
		if err := s.Settle(); err != nil {
			return false
		}
		s.Set(c.Up, Bool(up))
		if err := s.Settle(); err != nil {
			return false
		}
		if err := s.ClockEdge(); err != nil {
			return false
		}
		got, ok := s.ReadBus(c.Q)
		if !ok {
			return false
		}
		want := (v0 + 1) % 64
		if !up {
			want = (v0 + 63) % 64
		}
		return got == want
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 40}
}

func TestStatsAndCounts(t *testing.T) {
	s := New()
	a, b, o := s.Net("a"), s.Net("b"), s.Net("o")
	s.Gate(AND, o, a, b)
	s.DFF(o, s.Net("q"), -1)
	if s.NumGates() != 1 || s.NumDFFs() != 1 {
		t.Fatal("counts wrong")
	}
	s.Set(a, L1)
	s.Set(b, L1)
	mustSettle(t, s)
	if s.evals == 0 {
		t.Fatal("expected gate evaluations")
	}
}

func TestGateIntrospection(t *testing.T) {
	s := New()
	nets := []int{s.Net("a"), s.Net("b"), s.Net("c")}
	s.Gate(AND, nets[2], nets[0], nets[1])
	s.Gate(NOT, s.Net("d"), nets[2])
	s.Gate(OR, s.Net("e"), nets[0], nets[1], nets[2])
	gs := s.Gates()
	if len(gs) != 3 || gs[2].Inputs != 3 || gs[2].Kind != OR {
		t.Fatalf("gates %v", gs)
	}
	for _, k := range []Kind{AND, OR, NAND, NOR, XOR, XNOR, NOT, BUF, MUX2, TRIBUF} {
		if k.String() == "" {
			t.Fatal("kind string empty")
		}
	}
	if len(s.values) != 5 || s.names[0] != "a" {
		t.Fatalf("net introspection: %d %q", len(s.values), s.names[0])
	}
}

func TestMuxWithZInput(t *testing.T) {
	// A floating (Z) input reads as X through a gate.
	s := New()
	en, d, q := s.Net("en"), s.Net("d"), s.Net("q")
	s.Gate(TRIBUF, q, en, d)
	o := s.Net("o")
	s.Gate(BUF, o, q)
	s.Set(en, L0)
	s.Set(d, L1)
	mustSettle(t, s)
	if s.Value(q) != Z || s.Value(o) != X {
		t.Fatalf("Z propagation: q=%v o=%v", s.Value(q), s.Value(o))
	}
}

func TestOnChange(t *testing.T) {
	s := New()
	a, o := s.Net("a"), s.Net("o")
	s.Gate(NOT, o, a)
	var fires int
	s.OnChange(o, func(Value) { fires++ })
	s.Set(a, L0)
	mustSettle(t, s)
	s.Set(a, L1)
	mustSettle(t, s)
	if fires < 2 {
		t.Fatalf("watch fired %d times", fires)
	}
}
