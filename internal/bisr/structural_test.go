package bisr

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cerr"
	"repro/internal/logicsim"
)

func newStructural(t *testing.T, spares, addrBits int) *StructuralTLB {
	t.Helper()
	s := logicsim.New()
	st := BuildStructuralTLB(s, spares, addrBits, "tlb")
	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStructuralTLBBasics(t *testing.T) {
	st := newStructural(t, 4, 5)
	// Empty: no hit anywhere.
	for _, r := range []int{0, 7, 31} {
		if _, hit, err := st.Lookup(r); err != nil || hit {
			t.Fatalf("empty TLB hit row %d (err %v)", r, err)
		}
	}
	// Store rows 10 and 3; strictly increasing spares.
	ok, err := st.StoreRow(10)
	if err != nil || !ok {
		t.Fatal(err)
	}
	ok, err = st.StoreRow(3)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if sp, hit, _ := st.Lookup(10); !hit || sp != 0 {
		t.Fatalf("lookup 10 -> %d hit=%v", sp, hit)
	}
	if sp, hit, _ := st.Lookup(3); !hit || sp != 1 {
		t.Fatalf("lookup 3 -> %d hit=%v", sp, hit)
	}
	if _, hit, _ := st.Lookup(11); hit {
		t.Fatal("phantom hit")
	}
}

func TestStructuralTLBSupersede(t *testing.T) {
	st := newStructural(t, 4, 5)
	if _, err := st.StoreRow(7); err != nil {
		t.Fatal(err)
	}
	// Re-store the same row (faulty spare): the newer entry (spare 1)
	// must win the priority encode.
	if _, err := st.StoreRow(7); err != nil {
		t.Fatal(err)
	}
	sp, hit, err := st.Lookup(7)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || sp != 1 {
		t.Fatalf("superseded lookup -> %d hit=%v, want spare 1", sp, hit)
	}
}

func TestStructuralTLBFull(t *testing.T) {
	st := newStructural(t, 2, 4)
	if ok, _ := st.StoreRow(1); !ok {
		t.Fatal("store 1 refused")
	}
	if ok, _ := st.StoreRow(2); !ok {
		t.Fatal("store 2 refused")
	}
	if !st.IsFull() {
		t.Fatal("full flag not raised")
	}
	if ok, _ := st.StoreRow(3); ok {
		t.Fatal("overflow store accepted")
	}
	// The rejected row must not hit.
	if _, hit, _ := st.Lookup(3); hit {
		t.Fatal("rejected store became visible")
	}
	// Existing entries untouched.
	if sp, hit, _ := st.Lookup(2); !hit || sp != 1 {
		t.Fatal("existing entry corrupted by overflow store")
	}
}

// TestStructuralMatchesBehavioural drives random interleaved
// store/lookup traffic through the gate-level TLB and the behavioural
// TLB and requires identical observable behaviour.
func TestStructuralMatchesBehavioural(t *testing.T) {
	const spares, addrBits = 4, 5
	st := newStructural(t, spares, addrBits)
	ref := NewTLB(spares)
	rng := rand.New(rand.NewSource(99))
	for op := 0; op < 120; op++ {
		row := rng.Intn(1 << addrBits)
		if rng.Intn(3) == 0 && ref.Used() < spares {
			if _, err := ref.Store(row); err != nil {
				t.Fatal(err)
			}
			ok, err := st.StoreRow(row)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("structural store refused while behavioural accepted (op %d)", op)
			}
			continue
		}
		wantSp, wantHit := ref.Lookup(row)
		gotSp, gotHit, err := st.Lookup(row)
		if err != nil {
			t.Fatal(err)
		}
		if wantHit != gotHit || (wantHit && wantSp != gotSp) {
			t.Fatalf("op %d row %d: structural (%d,%v) vs behavioural (%d,%v)",
				op, row, gotSp, gotHit, wantSp, wantHit)
		}
	}
}

// Property: after storing any distinct row sequence within capacity,
// every stored row hits its assignment-order spare.
func TestQuickStructuralAssignment(t *testing.T) {
	f := func(seed int64) bool {
		s := logicsim.New()
		st := BuildStructuralTLB(s, 4, 4, "qt")
		if err := st.Reset(); err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Perm(16)[:4]
		for i, r := range rows {
			ok, err := st.StoreRow(r)
			if err != nil || !ok {
				return false
			}
			sp, hit, err := st.Lookup(r)
			if err != nil || !hit || sp != i {
				return false
			}
		}
		return st.IsFull()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestStructuralTLBBadGeometryIsTypedError(t *testing.T) {
	s := logicsim.New()
	BuildStructuralTLB(s, 0, 4, "x")
	// The malformed netlist must refuse to simulate, returning the
	// typed construction error.
	err := s.Settle()
	if err == nil {
		t.Fatal("expected construction error for zero spares")
	}
	if !errors.Is(err, cerr.ErrNetlist) {
		t.Fatalf("construction error must be ErrNetlist, got %v", err)
	}
}

// The drivers below clock a standalone structural TLB for the tests;
// the gate-level controller drives the same nets from its PLA.

// Reset initialises the structural TLB (all entries invalid, fill
// pointer zero).
func (t *StructuralTLB) Reset() error {
	s := t.Sim
	s.Set(t.RstN, logicsim.L0)
	s.Set(t.Store, logicsim.L0)
	s.SetBus(t.Addr, 0)
	if err := s.Settle(); err != nil {
		return err
	}
	if err := s.ApplyResets(); err != nil {
		return err
	}
	s.Set(t.RstN, logicsim.L1)
	return s.Settle()
}

// StoreRow captures a row address into the next spare entry (one
// clock). It returns false when the TLB was already full.
func (t *StructuralTLB) StoreRow(row int) (bool, error) {
	s := t.Sim
	s.SetBus(t.Addr, uint64(row))
	s.Set(t.Store, logicsim.L1)
	if err := s.Settle(); err != nil {
		return false, err
	}
	wasFull := s.Value(t.Full) == logicsim.L1
	if err := s.ClockEdge(); err != nil {
		return false, err
	}
	s.Set(t.Store, logicsim.L0)
	if err := s.Settle(); err != nil {
		return false, err
	}
	return !wasFull, nil
}

// Lookup drives the address and returns (spare index, hit).
func (t *StructuralTLB) Lookup(row int) (int, bool, error) {
	s := t.Sim
	s.SetBus(t.Addr, uint64(row))
	if err := s.Settle(); err != nil {
		return 0, false, err
	}
	if s.Value(t.Hit) != logicsim.L1 {
		return 0, false, nil
	}
	v, ok := s.ReadBus(t.SpareIdx)
	if !ok {
		return 0, false, cerr.New(cerr.CodeSimDiverged, "bisr: spare index bus unknown")
	}
	return int(v), true, nil
}

// IsFull reports the registered full flag.
func (t *StructuralTLB) IsFull() bool { return t.Sim.Value(t.Full) == logicsim.L1 }
