package bisr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/march"
	"repro/internal/sram"
)

func newArr(t *testing.T, spares int) *sram.Array {
	t.Helper()
	return sram.MustNew(sram.Config{Words: 64, BPW: 4, BPC: 4, SpareRows: spares})
}

func TestTLBBasics(t *testing.T) {
	tlb := NewTLB(4)
	if tlb.spares != 4 || tlb.Used() != 0 {
		t.Fatal("fresh TLB wrong")
	}
	sp, err := tlb.Store(10)
	if err != nil || sp != 0 {
		t.Fatalf("first store -> spare %d err %v", sp, err)
	}
	sp, err = tlb.Store(3)
	if err != nil || sp != 1 {
		t.Fatalf("second store -> spare %d", sp)
	}
	if got, ok := tlb.Lookup(10); !ok || got != 0 {
		t.Fatal("lookup 10 failed")
	}
	if got, ok := tlb.Lookup(3); !ok || got != 1 {
		t.Fatal("lookup 3 failed")
	}
	if _, ok := tlb.Lookup(99); ok {
		t.Fatal("phantom lookup")
	}
	if !strictlyIncreasing(tlb) {
		t.Fatal("spare sequence must be strictly increasing")
	}
}

func TestTLBRemapSupersedes(t *testing.T) {
	tlb := NewTLB(4)
	if _, err := tlb.Store(7); err != nil {
		t.Fatal(err)
	}
	// Spare 0 turned out faulty; row 7 is re-stored.
	sp, err := tlb.Store(7)
	if err != nil || sp != 1 {
		t.Fatalf("remap -> spare %d err %v", sp, err)
	}
	got, ok := tlb.Lookup(7)
	if !ok || got != 1 {
		t.Fatalf("lookup after remap -> %d", got)
	}
	// Entry 0 is superseded, not reused.
	es := tlb.Entries()
	if es[0].Valid || !es[1].Valid {
		t.Fatal("supersession flags wrong")
	}
	if tlb.Used() != 2 {
		t.Fatal("remap must consume a new spare")
	}
}

func TestTLBOverflow(t *testing.T) {
	tlb := NewTLB(2)
	if _, err := tlb.Store(1); err != nil {
		t.Fatal(err)
	}
	if _, err := tlb.Store(2); err != nil {
		t.Fatal(err)
	}
	if _, err := tlb.Store(3); err == nil {
		t.Fatal("overflow not detected")
	}
	if !tlb.Overflow() {
		t.Fatal("overflow flag not set")
	}
	tlb.Reset()
	if tlb.Used() != 0 || tlb.Overflow() {
		t.Fatal("reset failed")
	}
}

func TestRAMMapping(t *testing.T) {
	arr := newArr(t, 4)
	ram := NewRAM(arr)
	ram.Write(5, 0xA)
	if ram.Read(5) != 0xA {
		t.Fatal("bypass access failed")
	}
	// Map row 1 (addrs 4..7) to spare 0.
	if _, err := ram.TLB.Store(1); err != nil {
		t.Fatal(err)
	}
	ram.Mode = Map
	ram.Write(5, 0x7)
	// The raw array word 5 must be untouched; the spare holds 0x7.
	if arr.Read(5) != 0xA {
		t.Fatal("mapped write leaked into the regular row")
	}
	if arr.ReadSpare(0, 1) != 0x7 {
		t.Fatal("mapped write missed the spare row")
	}
	if ram.Read(5) != 0x7 {
		t.Fatal("mapped read wrong")
	}
	// Unmapped rows still access the main array.
	ram.Write(9, 0x3)
	if arr.Read(9) != 0x3 {
		t.Fatal("unmapped access diverted")
	}
}

func TestRepairSingleFaultyRow(t *testing.T) {
	arr := newArr(t, 4)
	// Fault in row 3.
	if err := arr.Inject(sram.CellAddr{Row: 3, Col: 7}, sram.Fault{Kind: sram.SA0}); err != nil {
		t.Fatal(err)
	}
	ram := NewRAM(arr)
	ctl := NewController(ram)
	out, err := ctl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Repaired {
		t.Fatalf("repair failed: %+v", out)
	}
	if out.SparesUsed != 1 {
		t.Fatalf("spares used %d, want 1", out.SparesUsed)
	}
	if out.Iterations != 1 {
		t.Fatalf("iterations %d", out.Iterations)
	}
	// Post-repair, the RAM is fully functional.
	res := march.Run(ram, march.IFA9(), march.JohnsonBackgrounds(4), 4)
	if !res.Pass() {
		t.Fatalf("post-repair march failed: %v", res.Failures[0])
	}
}

func TestRepairMultipleRows(t *testing.T) {
	arr := newArr(t, 4)
	for _, row := range []int{0, 5, 9, 15} {
		arr.InjectRow(row)
	}
	ram := NewRAM(arr)
	out, err := NewController(ram).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Repaired || out.SparesUsed != 4 {
		t.Fatalf("outcome %+v", out)
	}
	res := march.Run(ram, march.IFA9(), march.JohnsonBackgrounds(4), 4)
	if !res.Pass() {
		t.Fatal("post-repair march failed")
	}
}

func TestRepairFailsWithTooManyRows(t *testing.T) {
	arr := newArr(t, 2)
	for _, row := range []int{0, 5, 9} {
		arr.InjectRow(row)
	}
	ram := NewRAM(arr)
	out, err := NewController(ram).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Repaired {
		t.Fatal("3 faulty rows cannot be repaired with 2 spares")
	}
	if !out.Overflow {
		t.Fatal("overflow should be reported")
	}
}

func TestColumnFaultSwampsRowRedundancy(t *testing.T) {
	// The paper: a faulty column makes every word on it faulty,
	// swamping row redundancy -> Repair Unsuccessful, and the
	// controller's diagnosis must finger the column.
	arr := newArr(t, 4)
	arr.InjectColumn(2, true)
	ram := NewRAM(arr)
	out, err := NewController(ram).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Repaired {
		t.Fatal("column fault must not be repairable by row spares")
	}
	if len(out.ColumnSuspects) != 1 || out.ColumnSuspects[0] != 2 {
		t.Fatalf("column diagnosis wrong: %v, want [2]", out.ColumnSuspects)
	}
}

func TestNoColumnSuspectsForScatteredFaults(t *testing.T) {
	arr := newArr(t, 4)
	// Three scattered single-cell faults on distinct columns: no
	// column should be suspected.
	for i, cell := range []sram.CellAddr{{Row: 1, Col: 0}, {Row: 5, Col: 7}, {Row: 9, Col: 12}} {
		k := sram.SA0
		if i%2 == 1 {
			k = sram.SA1
		}
		if err := arr.Inject(cell, sram.Fault{Kind: k}); err != nil {
			t.Fatal(err)
		}
	}
	ram := NewRAM(arr)
	out, err := NewController(ram).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Repaired {
		t.Fatal("scattered faults within capacity should repair")
	}
	if len(out.ColumnSuspects) != 0 {
		t.Fatalf("false column suspects: %v", out.ColumnSuspects)
	}
}

func TestIteratedRepairHealsFaultySpare(t *testing.T) {
	arr := newArr(t, 4)
	rows := arr.Config().Rows()
	// Row 2 faulty, and spare 0 (physical row rows+0) also faulty: the
	// base 2-pass flow maps row 2 -> spare 0 and then fails; the
	// iterated flow remaps row 2 -> spare 1.
	if err := arr.Inject(sram.CellAddr{Row: 2, Col: 0}, sram.Fault{Kind: sram.SA1}); err != nil {
		t.Fatal(err)
	}
	if err := arr.Inject(sram.CellAddr{Row: rows, Col: 3}, sram.Fault{Kind: sram.SA0}); err != nil {
		t.Fatal(err)
	}
	// Base flow fails.
	ram1 := NewRAM(sramClone(t, arr))
	out1, err := NewController(ram1).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out1.Repaired {
		t.Fatal("base 2-pass flow should fail on a faulty spare")
	}
	// Iterated flow succeeds.
	ram2 := NewRAM(arr)
	ctl := NewController(ram2)
	ctl.MaxIterations = 4
	out2, err := ctl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Repaired {
		t.Fatalf("iterated flow should heal the faulty spare: %+v", out2)
	}
	if out2.Iterations < 2 {
		t.Fatalf("expected >= 2 iterations, got %d", out2.Iterations)
	}
	if sp, ok := ram2.TLB.Lookup(2); !ok || sp == 0 {
		t.Fatalf("row 2 should map past the faulty spare, got %d ok=%v", sp, ok)
	}
	res := march.Run(ram2, march.IFA9(), march.JohnsonBackgrounds(4), 4)
	if !res.Pass() {
		t.Fatal("post-iterated-repair march failed")
	}
}

// sramClone rebuilds an array with the same injected faults by
// replaying a fresh instance (the Array has no Clone; tests re-inject).
func sramClone(t *testing.T, src *sram.Array) *sram.Array {
	t.Helper()
	cfg := src.Config()
	dst := sram.MustNew(cfg)
	rows := cfg.Rows()
	// Recreate the two specific faults of the iterated test.
	if err := dst.Inject(sram.CellAddr{Row: 2, Col: 0}, sram.Fault{Kind: sram.SA1}); err != nil {
		t.Fatal(err)
	}
	if err := dst.Inject(sram.CellAddr{Row: rows, Col: 3}, sram.Fault{Kind: sram.SA0}); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestSawadaBaseline(t *testing.T) {
	s := NewSawada()
	if !s.Register(12) || !s.Repaired() {
		t.Fatal("single-address repair wrong")
	}
	if !s.Register(12) {
		t.Fatal("re-registering the same address is fine")
	}
	if s.Register(13) {
		t.Fatal("second address must overflow")
	}
	if s.Repaired() {
		t.Fatal("overflowed register cannot claim repair")
	}
}

func TestChenSunadaBaseline(t *testing.T) {
	cs, err := NewChenSunada(ChenSunadaConfig{Words: 64, SubblockWords: 16, SpareBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewChenSunada(ChenSunadaConfig{Words: 64, SubblockWords: 13}); err == nil {
		t.Fatal("non-divisible geometry must be rejected")
	}
	// Two faults in subblock 0: repairable in place.
	cs.Register(1)
	cs.Register(5)
	// Duplicate registration is idempotent.
	cs.Register(5)
	if !cs.Resolve() || len(cs.deadBlocks) != 0 {
		t.Fatal("two faults per subblock should repair in place")
	}
	// Third fault kills subblock 0; the single spare block absorbs it.
	cs.Register(9)
	if !cs.Resolve() {
		t.Fatal("fault assembler should divert the dead block")
	}
	if db := cs.deadBlocks; len(db) != 1 || db[0] != 0 {
		t.Fatalf("dead blocks %v", db)
	}
	// A second dead subblock exceeds the spare blocks.
	cs.Register(17)
	cs.Register(21)
	cs.Register(25)
	if cs.Resolve() {
		t.Fatal("two dead blocks with one spare should fail")
	}
}

// Property: for random fault patterns within capacity, the controller
// always repairs, and the repaired RAM passes a verification march.
func TestQuickRepairWithinCapacity(t *testing.T) {
	f := func(seed int64, nRows uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		spares := 4
		arr := sram.MustNew(sram.Config{Words: 64, BPW: 4, BPC: 4, SpareRows: spares})
		n := int(nRows)%spares + 1 // 1..4 faulty rows
		rows := rng.Perm(arr.Config().Rows())[:n]
		for _, r := range rows {
			// One random stuck cell per chosen row.
			col := rng.Intn(arr.Config().Cols())
			kind := sram.SA0
			if rng.Intn(2) == 1 {
				kind = sram.SA1
			}
			if err := arr.Inject(sram.CellAddr{Row: r, Col: col}, sram.Fault{Kind: kind}); err != nil {
				return false
			}
		}
		ram := NewRAM(arr)
		out, err := NewController(ram).Run()
		if err != nil || !out.Repaired {
			return false
		}
		return march.Run(ram, march.IFA9(), march.JohnsonBackgrounds(4), 4).Pass()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: the TLB spare sequence is strictly increasing under any
// store pattern.
func TestQuickTLBStrictlyIncreasing(t *testing.T) {
	f := func(rows []uint8) bool {
		tlb := NewTLB(len(rows))
		for _, r := range rows {
			if _, err := tlb.Store(int(r)); err != nil {
				return false
			}
		}
		return strictlyIncreasing(tlb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// strictlyIncreasing verifies the invariant that spare indices were
// issued in increasing order (always true by construction).
func strictlyIncreasing(t *TLB) bool {
	for i := range t.entries {
		if t.entries[i].Spare != i {
			return false
		}
	}
	return true
}
