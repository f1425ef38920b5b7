package bisr

import (
	"math/rand"
	"testing"

	"repro/internal/bist"
	"repro/internal/march"
	"repro/internal/sram"
)

// TestRerunMatchesFresh pins the netlist-reuse contract: Rerun on a
// reset, already-elaborated netlist must reproduce the verdict,
// capture count, and cycle count of a freshly elaborated run on an
// identical fault pattern.
func TestRerunMatchesFresh(t *testing.T) {
	cfg := sram.Config{Words: 32, BPW: 4, BPC: 4, SpareRows: 4}
	prog, err := bist.Assemble(march.IFA9())
	if err != nil {
		t.Fatal(err)
	}
	seedArr, _ := sram.New(cfg)
	g, err := NewGateLevel(seedArr, prog)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		nf := 1 + rng.Intn(5)
		type fp struct {
			cell sram.CellAddr
			kind sram.FaultKind
		}
		pattern := make([]fp, nf)
		for i := range pattern {
			k := sram.SA0
			if rng.Intn(2) == 1 {
				k = sram.SA1
			}
			pattern[i] = fp{cell: sram.CellAddr{Row: rng.Intn(cfg.Rows()), Col: rng.Intn(cfg.Cols())}, kind: k}
		}
		build := func() *sram.Array {
			a, _ := sram.New(cfg)
			for _, f := range pattern {
				_ = a.Inject(f.cell, sram.Fault{Kind: f.kind})
			}
			return a
		}
		fresh, err := NewGateLevel(build(), prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Run(4_000_000); err != nil {
			t.Fatal(err)
		}
		if err := g.Rerun(build(), 4_000_000); err != nil {
			t.Fatal(err)
		}
		if fresh.Repaired() != g.Repaired() || fresh.Captures != g.Captures || fresh.Cycles != g.Cycles {
			t.Errorf("trial %d nf=%d: fresh repaired=%v cap=%d cyc=%d, rerun repaired=%v cap=%d cyc=%d",
				trial, nf, fresh.Repaired(), fresh.Captures, fresh.Cycles,
				g.Repaired(), g.Captures, g.Cycles)
		}
	}
}
