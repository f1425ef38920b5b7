// Package repro_test benchmarks regenerate every table and figure of
// the paper (one Benchmark per experiment id in DESIGN.md) and add
// micro-benchmarks for the heavy substrates. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bisr"
	"repro/internal/bist"
	"repro/internal/compiler"
	"repro/internal/experiments"
	"repro/internal/extract"
	"repro/internal/floorplan"
	"repro/internal/gds"
	"repro/internal/geom"
	"repro/internal/leafcell"
	"repro/internal/march"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/spice"
	"repro/internal/sram"
	"repro/internal/tech"
	"repro/internal/yield"
)

// --- paper experiments, one bench per table/figure -----------------

var growthOnce sync.Once
var growthFactors map[int]float64

func growth(b *testing.B) map[int]float64 {
	b.Helper()
	growthOnce.Do(func() {
		gf, err := experiments.GrowthFactors()
		if err != nil {
			b.Fatal(err)
		}
		growthFactors = gf
	})
	return growthFactors
}

func BenchmarkFig4Yield(b *testing.B) {
	gf := growth(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range []int{0, 4, 8, 16} {
			m := yield.Model{Rows: 1024, Cols: 16, Spares: s, GrowthFactor: gf[s]}
			for n := 0.0; n <= 50; n += 2 {
				if s == 0 {
					_ = m.YieldNoRepair(n)
				} else {
					_ = m.YieldBISR(n)
				}
			}
		}
	}
}

func BenchmarkFig5Reliability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(30, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2DieCost(b *testing.B) {
	growth(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3TotalCost(b *testing.B) {
	growth(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Layout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Layout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTLBDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TLBDelay(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Coverage(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkController(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Controller(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRepairComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RepairComparison(10, 42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonteCarloYield(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MonteCarloYield(10, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks -------------------------------------

// The BenchmarkCompile* family measures warm-memo compiles: after the
// first iteration the leaf-cell library and both analysis transients
// come from the process-wide memos (internal/memo), as they do for a
// daemon compile that repeats a circuit. BenchmarkAnalysisCold in
// internal/compiler times the transients themselves.

func BenchmarkCompile64kbyte(b *testing.B) {
	p := compiler.Params{
		Words: 4096, BPW: 128, BPC: 8, Spares: 4,
		BufSize: 2, StrapCells: 32, Process: tech.CDA07,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileRefine is BenchmarkCompile64kbyte with an
// 8000-move floorplan refine (the largest budget bisrbench draws) at
// the daemon's default fan-out: the annealing starts dominate it, so
// it tracks the refine kernel inside a whole compile.
func BenchmarkCompileRefine(b *testing.B) {
	p := compiler.Params{
		Words: 4096, BPW: 128, BPC: 8, Spares: 4,
		BufSize: 2, StrapCells: 32, Process: tech.CDA07,
		RefineIterations: 8000, Parallelism: runtime.GOMAXPROCS(0),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileUntraced / BenchmarkCompileTraced measure the span
// overhead contract of internal/obs: run both and compare —
//
//	go test -bench='BenchmarkCompile(Un)?[Tt]raced' -count=5
//
// the traced run records every pipeline stage and kernel span into a
// live *obs.Trace and must stay within ~2% of the untraced baseline
// (the untraced path costs one context lookup per instrumentation
// site; the traced path a few time reads and one short append per
// span, against a warm-memo compile whose time is the macro
// generators and the floorplan).
func BenchmarkCompileUntraced(b *testing.B) {
	p := smallBenchParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.CompileCtx(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileTraced(b *testing.B) {
	p := smallBenchParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := obs.NewTrace("bench")
		ctx := obs.WithTrace(context.Background(), tr)
		if _, err := compiler.CompileCtx(ctx, p); err != nil {
			b.Fatal(err)
		}
		if tr.Len() == 0 {
			b.Fatal("traced compile recorded no spans")
		}
	}
}

// smallBenchParams is a fast-compiling configuration so the traced/
// untraced comparison gets enough iterations to be stable.
func smallBenchParams() compiler.Params {
	return compiler.Params{
		Words: 256, BPW: 8, BPC: 4, Spares: 4,
		BufSize: 1, StrapCells: 32, Process: tech.CDA07,
	}
}

func BenchmarkMarchIFA9(b *testing.B) {
	a := sram.MustNew(sram.Config{Words: 1024, BPW: 8, BPC: 4})
	bg := march.JohnsonBackgrounds(8)
	test := march.IFA9()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !march.Run(a, test, bg, 8).Pass() {
			b.Fatal("march failed on fault-free array")
		}
	}
}

func BenchmarkBISTEngine(b *testing.B) {
	prog, err := bist.Assemble(march.IFA9())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := sram.MustNew(sram.Config{Words: 256, BPW: 8, BPC: 4})
		if _, err := bist.NewEngine(prog, a, 8).Run(10_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelfRepairFlow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		arr := sram.MustNew(sram.Config{Words: 256, BPW: 8, BPC: 4, SpareRows: 4})
		arr.InjectRandom(3, rng)
		ram := bisr.NewRAM(arr)
		if _, err := bisr.NewController(ram).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTLBLookup(b *testing.B) {
	tlb := bisr.NewTLB(16)
	for r := 0; r < 16; r++ {
		if _, err := tlb.Store(r * 3); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlb.Lookup(i % 64)
	}
}

func BenchmarkSpiceInverterTransient(b *testing.B) {
	p := tech.CDA07
	l := float64(p.Feature) * 1e-9
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := spice.InverterDelays(p, 2e-6, 4e-6, l, 50e-15); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPLAEval(b *testing.B) {
	prog, err := bist.Assemble(march.IFA13())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.Eval(i%prog.NumStates, uint64(i)&15)
	}
}

func BenchmarkGateLevelRepair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		arr := sram.MustNew(sram.Config{Words: 32, BPW: 4, BPC: 4, SpareRows: 4})
		if err := arr.Inject(sram.CellAddr{Row: 3, Col: 2}, sram.Fault{Kind: sram.SA1}); err != nil {
			b.Fatal(err)
		}
		if _, err := bisr.RunGateLevelRepair(arr, march.IFA9(), 4_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtract6TArray(b *testing.B) {
	lib, err := leafcell.NewLibrary(tech.CDA07, 2)
	if err != nil {
		b.Fatal(err)
	}
	// A 16x16 bit-cell tile.
	tile := geom.NewCell("tile")
	cw, ch := lib.SRAM.Bounds().W(), lib.SRAM.Bounds().H()
	for r := 0; r < 16; r++ {
		for c := 0; c < 16; c++ {
			tile.Place("x", lib.SRAM.Cell, geom.R0, geom.Point{X: c * cw, Y: r * ch})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		extract.Extract(tile)
	}
}

func BenchmarkChannelRoute(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var nets []route.Net
	for i := 0; i < 64; i++ {
		x0 := rng.Intn(100000)
		nets = append(nets, route.Net{
			Name: "n" + string(rune('A'+i%26)) + string(rune('a'+i/26)),
			Terminals: []route.Terminal{
				{X: x0, Top: true}, {X: x0 + 1000 + rng.Intn(40000), Top: false},
			},
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.Route(nets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpareAllocation(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	f := bisr.NewFaultBitmap(64, 64)
	for i := 0; i < 40; i++ {
		_ = f.Mark(rng.Intn(64), rng.Intn(64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bisr.AllocateSpares(f, 8, 8)
	}
}

func BenchmarkGDSExport(b *testing.B) {
	d, err := compiler.Compile(compiler.Params{
		Words: 1024, BPW: 8, BPC: 4, Spares: 4,
		BufSize: 2, StrapCells: 32, Process: tech.CDA07,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := gds.Write(&buf, d.Top, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPLAMinimize(b *testing.B) {
	p, err := bist.Assemble(march.IFA13())
	if err != nil {
		b.Fatal(err)
	}
	gray := p.Reencode(bist.GrayMapping(p.StateBits))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gray.Minimize()
	}
}

func BenchmarkTransparentIFA9(b *testing.B) {
	a := sram.MustNew(sram.Config{Words: 256, BPW: 8, BPC: 4})
	for i := 0; i < a.Words(); i++ {
		a.Write(i, uint64(i)&0xFF)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := march.RunTransparent(a, march.IFA9(), 8)
		if !res.Pass() || !res.Restored {
			b.Fatal("transparent run failed")
		}
	}
}

func BenchmarkFloorplan16(b *testing.B) {
	var macros []floorplan.Macro
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 16; i++ {
		c := geom.NewCell(string(rune('a' + i)))
		c.Abut = geom.R(0, 0, 200+rng.Intn(2000), 200+rng.Intn(2000))
		macros = append(macros, floorplan.Macro{Name: c.Name, Cell: c})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := floorplan.Place(tech.CDA07, macros, nil); err != nil {
			b.Fatal(err)
		}
	}
}
