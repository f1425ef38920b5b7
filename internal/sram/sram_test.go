package sram

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func cfg4() Config {
	return Config{Words: 64, BPW: 4, BPC: 4, SpareRows: 2}
}

func TestConfigValidate(t *testing.T) {
	good := cfg4()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Words: 0, BPW: 4, BPC: 4},
		{Words: 64, BPW: 0, BPC: 4},
		{Words: 64, BPW: 4, BPC: 3},  // bpc not power of 2
		{Words: 66, BPW: 4, BPC: 4},  // words % bpc != 0
		{Words: 64, BPW: 65, BPC: 4}, // > 64-bit words
		{Words: 64, BPW: 4, BPC: 4, SpareRows: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error for %+v", i, c)
		}
	}
	if good.Rows() != 16 || good.Cols() != 16 || good.TotalRows() != 18 || good.Bits() != 256 {
		t.Fatalf("geometry arithmetic wrong: %d %d %d %d", good.Rows(), good.Cols(), good.TotalRows(), good.Bits())
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	a := MustNew(cfg4())
	for addr := 0; addr < a.Words(); addr++ {
		a.Write(addr, uint64(addr)&0xF)
	}
	for addr := 0; addr < a.Words(); addr++ {
		if got := a.Read(addr); got != uint64(addr)&0xF {
			t.Fatalf("addr %d: got %x", addr, got)
		}
	}
}

func TestSpareRowAccess(t *testing.T) {
	a := MustNew(cfg4())
	a.WriteSpare(1, 2, 0xA)
	if got := a.ReadSpare(1, 2); got != 0xA {
		t.Fatalf("spare readback %x", got)
	}
	// Spare and regular space are disjoint.
	for addr := 0; addr < a.Words(); addr++ {
		if got := a.Read(addr); got != 0 {
			t.Fatalf("regular addr %d contaminated: %x", addr, got)
		}
	}
}

func TestStuckAtFaults(t *testing.T) {
	a := MustNew(cfg4())
	// Word addr 5 -> row 1, colsel 1; bit 2 -> col 2*4+1 = 9.
	if err := a.Inject(CellAddr{1, 9}, Fault{Kind: SA1}); err != nil {
		t.Fatal(err)
	}
	a.Write(5, 0)
	if got := a.Read(5); got != 0b0100 {
		t.Fatalf("SA1 read %04b, want 0100", got)
	}
	if err := a.Inject(CellAddr{1, 5}, Fault{Kind: SA0}); err != nil { // bit 1
		t.Fatal(err)
	}
	a.Write(5, 0xF)
	if got := a.Read(5); got != 0b1101 {
		t.Fatalf("SA0+SA1 read %04b, want 1101", got)
	}
}

func TestTransitionFaults(t *testing.T) {
	a := MustNew(cfg4())
	// TFU on bit 0 of addr 0 (row 0, col 0): cannot 0->1.
	if err := a.Inject(CellAddr{0, 0}, Fault{Kind: TFU}); err != nil {
		t.Fatal(err)
	}
	a.Write(0, 0x1)
	if got := a.Read(0); got&1 != 0 {
		t.Fatalf("TFU cell rose: %x", got)
	}
	// But 1->... can't even get to 1. Now TFD on another cell.
	if err := a.Inject(CellAddr{0, 4}, Fault{Kind: TFD}); err != nil { // bit 1 of addr 0
		t.Fatal(err)
	}
	a.Write(0, 0x2) // set bit 1 (0->1 allowed for TFD)
	if got := a.Read(0); got&2 == 0 {
		t.Fatal("TFD cell failed to rise")
	}
	a.Write(0, 0x0) // 1->0 blocked
	if got := a.Read(0); got&2 == 0 {
		t.Fatal("TFD cell fell")
	}
}

func TestStuckOpenSenseModel(t *testing.T) {
	a := MustNew(cfg4())
	// SOF on bit 0 of addr 0 (col 0). Reads return previous sensed
	// value on that column.
	if err := a.Inject(CellAddr{0, 0}, Fault{Kind: SOF}); err != nil {
		t.Fatal(err)
	}
	// Prime column 0's sense latch to 1 by reading addr 4 (row 1, cs 0)
	// whose bit 0 is also column 0.
	a.Write(4, 0x1)
	if a.Read(4)&1 != 1 {
		t.Fatal("prime read failed")
	}
	a.Write(0, 0x0)
	if got := a.Read(0); got&1 != 1 {
		t.Fatalf("SOF cell should echo sense latch 1, got %x", got)
	}
	// Now sense a 0 on the column, then the SOF cell reads 0.
	a.Write(4, 0x0)
	a.Read(4)
	if got := a.Read(0); got&1 != 0 {
		t.Fatalf("SOF cell should echo sense latch 0, got %x", got)
	}
	// Writes to a SOF cell are lost.
	a.Write(0, 0x1)
	a.Write(4, 0x0)
	a.Read(4)
	if got := a.Read(0); got&1 != 0 {
		t.Fatal("write to SOF cell should be lost")
	}
}

func TestDataRetentionFault(t *testing.T) {
	a := MustNew(cfg4())
	if err := a.Inject(CellAddr{0, 0}, Fault{Kind: DRF0}); err != nil {
		t.Fatal(err)
	}
	a.Write(0, 0x1)
	if got := a.Read(0); got&1 != 1 {
		t.Fatal("DRF cell should hold before delay")
	}
	// Touching the cell (read) resets the retention clock, so repeated
	// accesses without a delay keep the value alive.
	if got := a.Read(0); got&1 != 1 {
		t.Fatal("DRF cell should hold across back-to-back reads")
	}
	a.Wait()
	if got := a.Read(0); got&1 != 0 {
		t.Fatal("DRF0 cell should decay to 0 after the retention delay")
	}
	// DRF1 decays upward.
	if err := a.Inject(CellAddr{0, 4}, Fault{Kind: DRF1}); err != nil {
		t.Fatal(err)
	}
	a.Write(0, 0x0)
	a.Wait()
	if got := a.Read(0); got&2 == 0 {
		t.Fatal("DRF1 cell should decay to 1")
	}
}

func TestCouplingIdempotent(t *testing.T) {
	a := MustNew(cfg4())
	victim := CellAddr{0, 0}    // bit 0 of addr 0
	aggressor := CellAddr{1, 0} // bit 0 of addr 4
	if err := a.Inject(victim, Fault{Kind: CFID, Aggressor: aggressor, AggrRise: true, Forced: true}); err != nil {
		t.Fatal(err)
	}
	a.Write(0, 0x0)
	a.Write(4, 0x0)
	a.Write(4, 0x1) // aggressor rises -> victim forced to 1
	if got := a.Read(0); got&1 != 1 {
		t.Fatalf("CFID should force victim to 1, got %x", got)
	}
	// Falling aggressor does nothing.
	a.Write(0, 0x0)
	a.Write(4, 0x0)
	if got := a.Read(0); got&1 != 0 {
		t.Fatal("CFID should only fire on rise")
	}
}

func TestCouplingInversionAndState(t *testing.T) {
	a := MustNew(cfg4())
	victim := CellAddr{0, 0}
	aggr := CellAddr{1, 0}
	if err := a.Inject(victim, Fault{Kind: CFIN, Aggressor: aggr, AggrRise: false}); err != nil {
		t.Fatal(err)
	}
	a.Write(0, 0x1)
	a.Write(4, 0x1)
	a.Write(4, 0x0) // falling edge inverts victim
	if got := a.Read(0); got&1 != 0 {
		t.Fatal("CFIN should invert victim on aggressor fall")
	}

	b := MustNew(cfg4())
	if err := b.Inject(victim, Fault{Kind: CFST, Aggressor: aggr, AggrRise: true, Forced: false}); err != nil {
		t.Fatal(err)
	}
	b.Write(0, 0x1)
	b.Write(4, 0x1) // aggressor state 1 forces victim read as 0
	if got := b.Read(0); got&1 != 0 {
		t.Fatal("CFST should force victim while aggressor=1")
	}
	b.Write(4, 0x0)
	if got := b.Read(0); got&1 != 1 {
		t.Fatal("CFST should release when aggressor=0")
	}
}

func TestInjectValidation(t *testing.T) {
	a := MustNew(cfg4())
	if err := a.Inject(CellAddr{99, 0}, Fault{Kind: SA0}); err == nil {
		t.Fatal("row out of range accepted")
	}
	if err := a.Inject(CellAddr{0, 99}, Fault{Kind: SA0}); err == nil {
		t.Fatal("col out of range accepted")
	}
	if err := a.Inject(CellAddr{0, 0}, Fault{Kind: CFID, Aggressor: CellAddr{0, 0}}); err == nil {
		t.Fatal("self-coupling accepted")
	}
	if err := a.Inject(CellAddr{0, 0}, Fault{Kind: CFID, Aggressor: CellAddr{50, 0}}); err == nil {
		t.Fatal("aggressor out of range accepted")
	}
}

func TestInjectRowColumnHelpers(t *testing.T) {
	a := MustNew(cfg4())
	a.InjectRow(3)
	rows := faultyRows(a)
	if len(rows) != 1 || rows[0] != 3 {
		t.Fatalf("faulty rows %v", rows)
	}
	if a.FaultCount() != a.Config().Cols() {
		t.Fatalf("row fault count %d", a.FaultCount())
	}
	b := MustNew(cfg4())
	b.InjectColumn(0, true)
	if got := len(faultyRows(b)); got != b.Config().TotalRows() {
		t.Fatalf("column fault should hit every row, got %d", got)
	}
	// Column stuck at 1: every word on column-select 0 reads bit0=1.
	b.Write(0, 0)
	if b.Read(0)&1 != 1 {
		t.Fatal("column SA1 not visible")
	}
}

func TestInjectRandomReproducible(t *testing.T) {
	a := MustNew(cfg4())
	v1 := a.InjectRandom(20, rand.New(rand.NewSource(7)))
	b := MustNew(cfg4())
	v2 := b.InjectRandom(20, rand.New(rand.NewSource(7)))
	if len(v1) != len(v2) {
		t.Fatalf("lengths differ: %d %d", len(v1), len(v2))
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("victim %d differs: %v %v", i, v1[i], v2[i])
		}
	}
	if a.FaultCount() == 0 {
		t.Fatal("no faults injected")
	}
}

func TestInjectClustered(t *testing.T) {
	cfg := Config{Words: 256, BPW: 8, BPC: 8, SpareRows: 4}
	a := MustNew(cfg)
	victims := a.InjectClustered(20, 4, 1, rand.New(rand.NewSource(9)))
	if len(victims) != 20 {
		t.Fatalf("placed %d victims", len(victims))
	}
	// Clustering concentrates: the distinct-row count must be well
	// below 20 (uniform placement would almost surely spread wider).
	rows := map[int]bool{}
	for _, v := range victims {
		rows[v.Row] = true
	}
	if len(rows) >= 18 {
		t.Fatalf("clustered injection spread over %d rows", len(rows))
	}
	// Degenerate parameters clamp.
	b := MustNew(cfg)
	if got := b.InjectClustered(5, 0, 0, rand.New(rand.NewSource(1))); len(got) != 5 {
		t.Fatalf("clamped injection placed %d", len(got))
	}
}

// Property: a fault-free array is a perfect memory under random
// write/read sequences.
func TestQuickFaultFreeMemory(t *testing.T) {
	a := MustNew(Config{Words: 256, BPW: 8, BPC: 8, SpareRows: 4})
	ref := make(map[int]uint64)
	f := func(addr uint16, data uint8, write bool) bool {
		ad := int(addr) % a.Words()
		if write {
			a.Write(ad, uint64(data))
			ref[ad] = uint64(data)
			return true
		}
		want := ref[ad]
		return a.Read(ad) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: bit interleaving — two distinct word addresses never share
// a physical cell.
func TestQuickAddressDisjointness(t *testing.T) {
	a := MustNew(Config{Words: 128, BPW: 8, BPC: 4, SpareRows: 0})
	f := func(x, y uint16) bool {
		ax, ay := int(x)%128, int(y)%128
		if ax == ay {
			return true
		}
		rx, cx := ax/4, ax%4
		ry, cy := ay/4, ay%4
		sx := map[int]bool{}
		for _, c := range a.wordCells(rx, cx) {
			sx[c] = true
		}
		for _, c := range a.wordCells(ry, cy) {
			if sx[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFaultKindStrings(t *testing.T) {
	if SA0.String() != "SA0" || CFST.String() != "CFST" {
		t.Fatal("fault kind strings wrong")
	}
}

// faultyRows lists the rows holding at least one injected fault.
func faultyRows(a *Array) []int {
	seen := map[int]bool{}
	for vi := range a.faults {
		seen[vi/a.cfg.Cols()] = true
	}
	var out []int
	for r := range seen {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}
