package floorplan

import (
	"context"
	"testing"

	"repro/internal/cerr"
	"repro/internal/tech"
)

func multiMacros(t *testing.T, n int) ([]Macro, *Result) {
	t.Helper()
	var macros []Macro
	for i := 0; i < n; i++ {
		macros = append(macros, block(string(rune('a'+i)), 300+i*90, 200+(i%3)*70))
	}
	base, err := Place(tech.CDA07, macros, nil)
	if err != nil {
		t.Fatal(err)
	}
	return macros, base
}

// TestMultiStartSchedulingBlind is the byte-determinism contract: the
// winning floorplan must be identical whether the starts run
// sequentially (par=1) or fully concurrently (par=starts), because the
// seed sequence, per-start budgets, and the (cost, seed) tiebreak are
// all fixed by the inputs alone.
func TestMultiStartSchedulingBlind(t *testing.T) {
	macros, base := multiMacros(t, 7)
	for _, starts := range []int{1, 2, 4, 8} {
		serial, err := RefineMultiCtx(context.Background(), tech.CDA07, macros, nil, base, 4000, 5, starts, 1)
		if err != nil {
			t.Fatal(err)
		}
		par, err := RefineMultiCtx(context.Background(), tech.CDA07, macros, nil, base, 4000, 5, starts, starts)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Area != par.Area || serial.Wirelength != par.Wirelength {
			t.Fatalf("starts=%d: serial %d/%d vs parallel %d/%d",
				starts, serial.Area, serial.Wirelength, par.Area, par.Wirelength)
		}
		for name, pl := range serial.Placements {
			if par.Placements[name] != pl {
				t.Fatalf("starts=%d: placement of %q differs: %+v vs %+v",
					starts, name, pl, par.Placements[name])
			}
		}
	}
}

// TestMultiStartNoWorseThanSingle: with the same total budget, the
// multi-start winner can only match or beat the single start seeded at
// the base seed... is NOT guaranteed in general (each start gets a
// smaller share), but the winner must never be worse than the greedy
// initial by much, and must stay legal.
func TestMultiStartLegalAndBounded(t *testing.T) {
	macros, base := multiMacros(t, 6)
	res, err := RefineMultiCtx(context.Background(), tech.CDA07, macros, nil, base, 6000, 9, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if blended(res) > blended(base)*1.05 {
		t.Fatalf("multi-start regressed: %.0f -> %.0f", blended(base), blended(res))
	}
}

func TestMultiStartClamps(t *testing.T) {
	macros, base := multiMacros(t, 4)
	// More starts than iterations: clamped so every start gets >= 1 move.
	res, err := RefineMultiCtx(context.Background(), tech.CDA07, macros, nil, base, 3, 1, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("nil result")
	}
	// Over-cap starts are rejected with typed params error.
	_, err = RefineMultiCtx(context.Background(), tech.CDA07, macros, nil, base, 1000, 1, maxRefineStarts+1, 1)
	if cerr.CodeOf(err) != cerr.CodeInvalidParams {
		t.Fatalf("want CodeInvalidParams for %d starts, got %v", maxRefineStarts+1, err)
	}
}

// TestMultiStartBudgetExpiry: an already-cancelled context still
// yields a legal floorplan plus the typed budget error.
func TestMultiStartBudgetExpiry(t *testing.T) {
	macros, base := multiMacros(t, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RefineMultiCtx(ctx, tech.CDA07, macros, nil, base, 5000, 2, 4, 4)
	if cerr.CodeOf(err) != cerr.CodeBudgetExceeded {
		t.Fatalf("want CodeBudgetExceeded, got %v", err)
	}
	if res == nil || len(res.Placements) != len(macros) {
		t.Fatalf("expired refine should still return a full floorplan, got %+v", res)
	}
}

// TestMultiStartPanicIsTyped: a start that panics (here on a macro
// with no cell) surfaces as a typed ERR_INTERNAL attributed to the
// floorplan at every par. Before the starts ran under per-branch
// guards, par > 1 panicked on a start goroutine and killed the process.
func TestMultiStartPanicIsTyped(t *testing.T) {
	macros, base := multiMacros(t, 6)
	broken := append([]Macro(nil), macros...)
	broken[2].Cell = nil
	for _, par := range []int{1, 4} {
		res, err := RefineMultiCtx(context.Background(), tech.CDA07, broken, nil, base, 4000, 1, 4, par)
		if cerr.CodeOf(err) != cerr.CodeInternal || cerr.StageOf(err) != "floorplan" {
			t.Fatalf("par %d: err = %v, want ERR_INTERNAL[floorplan]", par, err)
		}
		if res != nil {
			t.Fatalf("par %d: a panicked refine returned a floorplan", par)
		}
	}
}
