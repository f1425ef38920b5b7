package bisr

import (
	"math/rand"
	"testing"

	"repro/internal/bist"
	"repro/internal/march"
	"repro/internal/sram"
)

func glConfig() sram.Config {
	return sram.Config{Words: 32, BPW: 4, BPC: 4, SpareRows: 4}
}

// runIFA9 builds the gate-level netlist for the IFA-9 program over arr
// and runs it for at most maxCycles.
func runIFA9(arr *sram.Array, maxCycles int64) (*GateLevel, error) {
	prog, err := bist.Assemble(march.IFA9())
	if err != nil {
		return nil, err
	}
	g, err := NewGateLevel(arr, prog)
	if err != nil {
		return nil, err
	}
	return g, g.Run(maxCycles)
}

func TestGateLevelFaultFree(t *testing.T) {
	arr := sram.MustNew(glConfig())
	g, err := runIFA9(arr, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Repaired() || g.Captures != 0 || g.SparesUsed() != 0 {
		t.Fatalf("fault-free gate-level run: repaired=%v captures=%d spares=%d",
			g.Repaired(), g.Captures, g.SparesUsed())
	}
	gates, dffs := g.GateCount()
	if gates == 0 || dffs == 0 {
		t.Fatal("no netlist built")
	}
	t.Logf("gate-level BIST+BISR: %d gates, %d flip-flops, %d cycles", gates, dffs, g.Cycles)
}

func TestGateLevelRepairsFaultyRow(t *testing.T) {
	arr := sram.MustNew(glConfig())
	if err := arr.Inject(sram.CellAddr{Row: 5, Col: 9}, sram.Fault{Kind: sram.SA1}); err != nil {
		t.Fatal(err)
	}
	g, err := runIFA9(arr, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Repaired() {
		t.Fatalf("gate-level repair failed: captures=%d pass2errs=%d", g.Captures, g.Pass2Errors)
	}
	if g.Captures == 0 {
		t.Fatal("fault never captured")
	}
	if g.SparesUsed() != 1 {
		t.Fatalf("spares used %d, want 1", g.SparesUsed())
	}
}

func TestGateLevelDetectsUnrepairable(t *testing.T) {
	arr := sram.MustNew(sram.Config{Words: 32, BPW: 4, BPC: 4, SpareRows: 4})
	// Five faulty rows exceed four spares.
	for _, r := range []int{0, 2, 4, 6, 7} {
		if err := arr.Inject(sram.CellAddr{Row: r, Col: 1}, sram.Fault{Kind: sram.SA0}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := runIFA9(arr, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if g.Repaired() {
		t.Fatal("five faulty rows with four spares must be unrepairable")
	}
	if g.Pass2Errors == 0 {
		t.Fatal("pass 2 should observe residual faults")
	}
}

// TestGateLevelMatchesBehavioural runs identical random fault
// patterns through the gate-level netlist and the behavioural
// controller, requiring the same repair verdict and spare usage.
func TestGateLevelMatchesBehavioural(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		n := rng.Intn(5) // 0..4 faults
		type fp struct {
			cell sram.CellAddr
			kind sram.FaultKind
		}
		pattern := make([]fp, n)
		for i := range pattern {
			k := sram.SA0
			if rng.Intn(2) == 1 {
				k = sram.SA1
			}
			pattern[i] = fp{
				cell: sram.CellAddr{Row: rng.Intn(8), Col: rng.Intn(16)},
				kind: k,
			}
		}
		build := func() *sram.Array {
			a := sram.MustNew(glConfig())
			for _, f := range pattern {
				_ = a.Inject(f.cell, sram.Fault{Kind: f.kind})
			}
			return a
		}
		g, err := runIFA9(build(), 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		ram := NewRAM(build())
		out, err := NewController(ram).Run()
		if err != nil {
			t.Fatal(err)
		}
		if g.Repaired() != out.Repaired {
			t.Fatalf("trial %d: gate-level repaired=%v behavioural=%v (pattern %v)",
				trial, g.Repaired(), out.Repaired, pattern)
		}
		if out.Repaired && g.SparesUsed() != out.SparesUsed {
			t.Fatalf("trial %d: spares gate-level=%d behavioural=%d",
				trial, g.SparesUsed(), out.SparesUsed)
		}
	}
}

func TestGateLevelRejectsBadGeometry(t *testing.T) {
	arr := sram.MustNew(sram.Config{Words: 48, BPW: 4, BPC: 4, SpareRows: 4})
	if _, err := runIFA9(arr, 1000); err == nil {
		t.Fatal("non-power-of-2 word count accepted")
	}
	arr2 := sram.MustNew(sram.Config{Words: 32, BPW: 4, BPC: 4})
	if _, err := runIFA9(arr2, 1000); err == nil {
		t.Fatal("zero spares accepted")
	}
}
