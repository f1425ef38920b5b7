package floorplan

import (
	"context"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// blended mirrors the optimiser's area/aspect cost for result
// comparison (wirelength-free instances).
func blended(r *Result) float64 {
	return float64(r.Area) * (1 + 0.5*(r.AspectRatio-1))
}

func TestRefineImprovesBadInitial(t *testing.T) {
	// Eight equal squares laid out in a strip: aspect 8, ripe for
	// improvement.
	var macros []Macro
	init := &Result{Placements: map[string]Placement{}}
	for i := 0; i < 8; i++ {
		m := block(string(rune('a'+i)), 500, 500)
		macros = append(macros, m)
		init.Placements[m.Name] = Placement{Orient: geom.R0, At: geom.Point{X: i * 500}}
	}
	init.Area = 8 * 500 * 500
	init.AspectRatio = 8
	refined, err := RefineMultiCtx(context.Background(), tech.CDA07, macros, nil, init, 4000, 11, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(blended(refined) < blended(init)*0.8) {
		t.Fatalf("refinement too weak: %.0f -> %.0f (aspect %.2f)",
			blended(init), blended(refined), refined.AspectRatio)
	}
	// Legality: pairwise disjoint.
	var boxes []geom.Rect
	for _, m := range macros {
		pl := refined.Placements[m.Name]
		boxes = append(boxes, geom.TransformRect(m.Cell.Bounds(), pl.Orient).Translate(pl.At))
	}
	for i := range boxes {
		for j := i + 1; j < len(boxes); j++ {
			if boxes[i].Overlaps(boxes[j]) {
				t.Fatalf("refined overlap between %d and %d", i, j)
			}
		}
	}
}

func TestRefineDeterministic(t *testing.T) {
	var macros []Macro
	for i := 0; i < 6; i++ {
		macros = append(macros, block(string(rune('a'+i)), 300+i*90, 200+i*70))
	}
	base, err := Place(tech.CDA07, macros, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RefineMultiCtx(context.Background(), tech.CDA07, macros, nil, base, 1500, 7, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RefineMultiCtx(context.Background(), tech.CDA07, macros, nil, base, 1500, 7, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Area != r2.Area || r1.Wirelength != r2.Wirelength {
		t.Fatalf("nondeterministic refinement: %d/%d vs %d/%d",
			r1.Area, r1.Wirelength, r2.Area, r2.Wirelength)
	}
	// Zero iterations is the identity.
	same, err := RefineMultiCtx(context.Background(), tech.CDA07, macros, nil, base, 0, 7, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if same != base {
		t.Fatal("0 iterations should return the input")
	}
}

func TestRefineNeverWorseThanGreedyByMuch(t *testing.T) {
	// On a mixed instance the annealer must not end above the greedy
	// cost (it keeps the best-seen state, which includes the start).
	var macros []Macro
	sizes := [][2]int{{900, 300}, {400, 400}, {700, 200}, {300, 800}, {500, 500}}
	for i, s := range sizes {
		macros = append(macros, block(string(rune('a'+i)), s[0], s[1]))
	}
	base, err := Place(tech.CDA07, macros, nil)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := RefineMultiCtx(context.Background(), tech.CDA07, macros, nil, base, 2500, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if blended(refined) > blended(base)*1.02+math.Sqrt(float64(base.Area)) {
		t.Fatalf("refinement regressed: %.0f -> %.0f", blended(base), blended(refined))
	}
}

// refineBenchSet is a synthetic stand-in for the 64-kbyte compile's
// floorplan (4096 words × 128 bits, 8:1 column mux, 4 spares): the
// same eight macros with their bounding boxes and edge ports, and the
// same seven two-pin nets, placed by Place. The compiler's own macro
// set cannot be built here because compiler imports floorplan.
func refineBenchSet(tb testing.TB) ([]Macro, []Net, *Result) {
	tb.Helper()
	port := func(name string, r geom.Rect) geom.Port {
		return geom.Port{Name: name, Layer: tech.Metal2, Rect: r}
	}
	macros := []Macro{
		block("array", 16214800, 7224000,
			port("wl_edge", geom.R(0, 0, 700, 7224000)),
			port("bl_edge", geom.R(0, 0, 16214800, 700))),
		block("rowdec", 54950, 7168000,
			port("wl_edge", geom.R(54250, 0, 54950, 7168000)),
			port("abus", geom.R(0, 0, 54950, 700))),
		block("colper", 16214800, 70000,
			port("bl_edge", geom.R(0, 69300, 16214800, 70000)),
			port("dout", geom.R(0, 0, 16214800, 700))),
		block("datagen", 459550, 406000, port("dcmp", geom.R(0, 0, 459550, 700))),
		block("addgen", 176750, 168000, port("abus", geom.R(0, 0, 176750, 700))),
		block("streg", 106050, 70000, port("ctl", geom.R(0, 0, 106050, 700))),
		block("trpla", 212800, 288400, port("ctl", geom.R(0, 0, 212800, 700))),
		block("tlb", 246750, 70000,
			port("spare_wl", geom.R(246050, 0, 246750, 70000)),
			port("abus", geom.R(0, 0, 246750, 700))),
	}
	net := func(name, m0, p0, m1, p1 string) Net {
		return Net{Name: name, Pins: []Pin{{Macro: m0, Port: p0}, {Macro: m1, Port: p1}}}
	}
	nets := []Net{
		net("wl_bus", "rowdec", "wl_edge", "array", "wl_edge"),
		net("bl_bus", "array", "bl_edge", "colper", "bl_edge"),
		net("dbus", "colper", "dout", "datagen", "dcmp"),
		net("addr", "addgen", "abus", "rowdec", "abus"),
		net("ctl", "trpla", "ctl", "streg", "ctl"),
		net("spare_wl", "tlb", "spare_wl", "array", "wl_edge"),
		net("addr_tlb", "addgen", "abus", "tlb", "abus"),
	}
	initial, err := Place(tech.CDA07, macros, nets)
	if err != nil {
		tb.Fatal(err)
	}
	return macros, nets, initial
}

type refineKernel func(ctx context.Context, macros []Macro, nets []Net, initial *Result, iterations int, seed int64) (map[string]Placement, float64, error)

// benchRefine times one 8000-move refine the way the compiler runs it
// at Parallelism 1: four starts of 2000 moves, seeds 1..4, one after
// another.
func benchRefine(b *testing.B, kernel refineKernel) {
	macros, nets, initial := refineBenchSet(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := int64(1); s <= 4; s++ {
			if _, _, err := kernel(ctx, macros, nets, initial, 2000, s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRefine(b *testing.B) { benchRefine(b, refineOne) }

// BenchmarkRefineRef is BenchmarkRefine on the map-based oracle.
func BenchmarkRefineRef(b *testing.B) { benchRefine(b, refineOneRef) }

// TestRefineAllocsFlat: a start's allocations are set-up only, so
// they must not grow with the move budget.
func TestRefineAllocsFlat(t *testing.T) {
	macros, nets, initial := refineBenchSet(t)
	ctx := context.Background()
	allocs := func(budget int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, err := refineOne(ctx, macros, nets, initial, budget, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(500), allocs(8000)
	if math.Abs(long-short) > 4 {
		t.Fatalf("allocs grow with the budget: %v for 500 moves, %v for 8000", short, long)
	}
}
