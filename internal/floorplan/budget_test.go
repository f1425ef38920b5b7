package floorplan

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cerr"
	"repro/internal/tech"
)

// TestRefineCtxDeadline drives the annealer with a huge iteration
// budget under a 1 ms deadline: it must stop promptly, return the
// best-so-far floorplan, and classify the stop as ERR_BUDGET_EXCEEDED.
func TestRefineCtxDeadline(t *testing.T) {
	var macros []Macro
	for i := 0; i < 10; i++ {
		macros = append(macros, block(string(rune('a'+i)), 300+i*90, 200+i*70))
	}
	base, err := Place(tech.CDA07, macros, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := RefineMultiCtx(ctx, tech.CDA07, macros, nil, base, maxRefineIterations, 7, 1, 1)
	elapsed := time.Since(start)
	if !errors.Is(err, cerr.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("refine did not stop promptly: %v", elapsed)
	}
	if res == nil || res.Top == nil {
		t.Fatal("no best-so-far partial result returned")
	}
	if res.Area <= 0 {
		t.Fatalf("partial result has no area: %+v", res)
	}
}

// TestRefineCtxBudgetCap rejects an absurd iteration request before
// doing any work.
func TestRefineCtxBudgetCap(t *testing.T) {
	macros := []Macro{block("a", 100, 100), block("b", 80, 60)}
	base, err := Place(tech.CDA07, macros, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RefineMultiCtx(context.Background(), tech.CDA07, macros, nil, base, maxRefineIterations+1, 1, 1, 1)
	if !errors.Is(err, cerr.ErrInvalidParams) {
		t.Fatalf("want ErrInvalidParams, got %v", err)
	}
}

// TestStackFallback exercises the degraded-mode placer: every macro
// must land without overlap and connectivity must still resolve.
func TestStackFallback(t *testing.T) {
	var macros []Macro
	for i := 0; i < 6; i++ {
		macros = append(macros, block(string(rune('a'+i)), 400+i*50, 150+i*40))
	}
	res, err := Stack(tech.CDA07, macros, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placements) != len(macros) {
		t.Fatalf("placed %d of %d macros", len(res.Placements), len(macros))
	}
	placed := macros
	for i := range placed {
		bi := placedBounds(&placed[i], res.Placements[placed[i].Name])
		for j := i + 1; j < len(placed); j++ {
			bj := placedBounds(&placed[j], res.Placements[placed[j].Name])
			if bi.Overlaps(bj) {
				t.Fatalf("stacked macros %q and %q overlap", placed[i].Name, placed[j].Name)
			}
		}
	}
	if res.Area < res.SumMacroArea {
		t.Fatalf("outline %d smaller than macro sum %d", res.Area, res.SumMacroArea)
	}
}

// TestPlaceErrorsAreTyped asserts the floorplan validation failures
// carry ERR_FLOORPLAN.
func TestPlaceErrorsAreTyped(t *testing.T) {
	cases := []struct {
		name   string
		macros []Macro
		nets   []Net
	}{
		{"no macros", nil, nil},
		{"empty macro", []Macro{{Name: "x", Cell: nil}}, nil},
		{"duplicate", []Macro{block("a", 10, 10), block("a", 20, 20)}, nil},
		{"unknown macro", []Macro{block("a", 10, 10)},
			[]Net{{Name: "n", Pins: []Pin{{Macro: "ghost", Port: "p"}}}}},
		{"unknown port", []Macro{block("a", 10, 10)},
			[]Net{{Name: "n", Pins: []Pin{{Macro: "a", Port: "ghost"}}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Place(tech.CDA07, tc.macros, tc.nets); !errors.Is(err, cerr.ErrFloorplan) {
				t.Fatalf("want ErrFloorplan, got %v", err)
			}
			if _, err := Stack(tech.CDA07, tc.macros, tc.nets); !errors.Is(err, cerr.ErrFloorplan) {
				t.Fatalf("stack: want ErrFloorplan, got %v", err)
			}
		})
	}
}
