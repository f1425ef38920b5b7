package floorplan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cerr"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/tech"
)

// refineOneRef is the original map-based annealing start, kept
// verbatim as the oracle for refineOne: FuzzRefineDifferential and
// BenchmarkRefineRef run both kernels on the same inputs. It clones a
// map[string]Placement for every candidate move, which is what made
// it slow; do not optimise it.
func refineOneRef(ctx context.Context, macros []Macro, nets []Net, initial *Result, iterations int, seed int64) (map[string]Placement, float64, error) {
	moves := 0
	var endSpan func(...obs.Attr)
	ctx, endSpan = obs.Start(ctx, "floorplan.refine")
	defer func() {
		endSpan(obs.Int("moves", moves), obs.Int("budget", iterations),
			obs.Int("seed", int(seed)))
	}()
	byName := macrosByName(macros)
	names := make([]string, 0, len(macros))
	for i := range macros {
		names = append(names, macros[i].Name)
	}
	cur := map[string]Placement{}
	for n, pl := range initial.Placements {
		cur[n] = pl
	}
	rng := rand.New(rand.NewSource(seed))

	cost := func(pls map[string]Placement) float64 {
		var bbox geom.Rect
		for n, pl := range pls {
			bbox = bbox.Union(placedBounds(byName[n], pl))
		}
		area := float64(bbox.Area())
		w, h := float64(bbox.W()), float64(bbox.H())
		aspect := 1.0
		if w > 0 && h > 0 {
			aspect = math.Max(w, h) / math.Min(w, h)
		}
		wl := 0.0
		for _, net := range nets {
			var pts []geom.Point
			for _, pin := range net.Pins {
				r, _, ok := portRect(byName[pin.Macro], pls[pin.Macro], pin.Port)
				if ok {
					pts = append(pts, r.Center())
				}
			}
			for i := 1; i < len(pts); i++ {
				wl += math.Abs(float64(pts[i].X-pts[i-1].X)) + math.Abs(float64(pts[i].Y-pts[i-1].Y))
			}
		}
		return area*(1+0.5*(aspect-1)) + wl*(math.Sqrt(area)+1)/8
	}
	legal := func(pls map[string]Placement) bool {
		boxes := make([]geom.Rect, 0, len(pls))
		for n, pl := range pls {
			boxes = append(boxes, placedBounds(byName[n], pl))
		}
		for i := range boxes {
			for j := i + 1; j < len(boxes); j++ {
				if boxes[i].Overlaps(boxes[j]) {
					return false
				}
			}
		}
		return true
	}

	curCost := cost(cur)
	best := clonePlacements(cur)
	bestCost := curCost
	temp := curCost * 0.05
	cool := math.Pow(0.01, 1/float64(iterations)) // decay to 1% over the run

	var budgetErr error
	for it := 0; it < iterations; it++ {
		moves = it + 1
		if it%ctxCheckMoves == 0 {
			if err := ctx.Err(); err != nil {
				moves = it
				budgetErr = cerr.Wrap(cerr.CodeBudgetExceeded, err,
					"floorplan: refine cancelled after %d of %d iterations", it, iterations)
				break
			}
		}
		cand := clonePlacements(cur)
		switch rng.Intn(3) {
		case 0: // re-orient in place (keep the lower-left corner)
			n := names[rng.Intn(len(names))]
			pl := cand[n]
			old := placedBounds(byName[n], pl)
			pl.Orient = geom.AllOrients[rng.Intn(len(geom.AllOrients))]
			tb := geom.TransformRect(byName[n].Cell.Bounds(), pl.Orient)
			pl.At = geom.Point{X: old.X0 - tb.X0, Y: old.Y0 - tb.Y0}
			cand[n] = pl
		case 1: // relocate against a random other macro's edge
			n := names[rng.Intn(len(names))]
			m := names[rng.Intn(len(names))]
			if n == m {
				continue
			}
			anchor := placedBounds(byName[m], cand[m])
			pl := cand[n]
			tb := geom.TransformRect(byName[n].Cell.Bounds(), pl.Orient)
			var at geom.Point
			switch rng.Intn(4) {
			case 0:
				at = geom.Point{X: anchor.X1, Y: anchor.Y0}
			case 1:
				at = geom.Point{X: anchor.X0, Y: anchor.Y1}
			case 2:
				at = geom.Point{X: anchor.X0 - tb.W(), Y: anchor.Y0}
			default:
				at = geom.Point{X: anchor.X0, Y: anchor.Y0 - tb.H()}
			}
			pl.At = geom.Point{X: at.X - tb.X0, Y: at.Y - tb.Y0}
			cand[n] = pl
		default: // swap two macros' anchor corners
			a := names[rng.Intn(len(names))]
			b := names[rng.Intn(len(names))]
			if a == b {
				continue
			}
			ba := placedBounds(byName[a], cand[a])
			bb := placedBounds(byName[b], cand[b])
			pa, pb := cand[a], cand[b]
			ta := geom.TransformRect(byName[a].Cell.Bounds(), pa.Orient)
			tbx := geom.TransformRect(byName[b].Cell.Bounds(), pb.Orient)
			pa.At = geom.Point{X: bb.X0 - ta.X0, Y: bb.Y0 - ta.Y0}
			pb.At = geom.Point{X: ba.X0 - tbx.X0, Y: ba.Y0 - tbx.Y0}
			cand[a], cand[b] = pa, pb
		}
		if !legal(cand) {
			temp *= cool
			continue
		}
		cc := cost(cand)
		if cc < curCost || rng.Float64() < math.Exp((curCost-cc)/math.Max(temp, 1)) {
			cur, curCost = cand, cc
			if cc < bestCost {
				best, bestCost = clonePlacements(cand), cc
			}
		}
		temp *= cool
	}

	return best, bestCost, budgetErr
}

func clonePlacements(in map[string]Placement) map[string]Placement {
	out := make(map[string]Placement, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// FuzzRefineDifferential runs refineOne and the refineOneRef oracle on
// the same generated floorplan, seed and budget (at most 4000 moves),
// once to completion and once under a context that expires at the
// stop%8-th check (0: already cancelled), and requires equal placement
// maps, bit-equal costs, equal errors and equal "moves" span attrs.
func FuzzRefineDifferential(f *testing.F) {
	f.Add([]byte{6, 0, 0, 90, 60, 128, 128, 2}, int64(1), uint16(2000), uint8(3))
	f.Add([]byte{1, 1, 1, 10, 200, 0, 255, 3, 7, 2, 1}, int64(-7), uint16(399), uint8(1))
	f.Add([]byte{8, 2, 5, 33, 14, 130, 127, 1, 40, 8, 3}, int64(42), uint16(3999), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, budget uint16, stop uint8) {
		macros, nets, initial, ok := fuzzFloorplan(data)
		if !ok {
			return
		}
		iterations := 1 + int(budget)%4000
		for _, checks := range []int{-1, int(stop % 8)} {
			got := runRefineKernel(refineOne, macros, nets, initial, iterations, seed, checks)
			want := runRefineKernel(refineOneRef, macros, nets, initial, iterations, seed, checks)
			if !reflect.DeepEqual(got.best, want.best) {
				t.Fatalf("checks %d: placements differ:\n got %v\nwant %v", checks, got.best, want.best)
			}
			if math.Float64bits(got.cost) != math.Float64bits(want.cost) {
				t.Fatalf("checks %d: cost %v (%#x), want %v (%#x)", checks,
					got.cost, math.Float64bits(got.cost), want.cost, math.Float64bits(want.cost))
			}
			if got.err != want.err || got.moves != want.moves {
				t.Fatalf("checks %d: stop (%q, moves %s), want (%q, moves %s)",
					checks, got.err, got.moves, want.err, want.moves)
			}
		}
	})
}

type refineRun struct {
	best  map[string]Placement
	cost  float64
	err   string
	moves string // the floorplan.refine span's "moves" attr
}

// runRefineKernel runs one kernel under a fresh trace. With checks >=
// 0 the context expires once the kernel has checked it that many
// times, so both kernels stop on the same move.
func runRefineKernel(kernel refineKernel, macros []Macro, nets []Net, initial *Result, iterations int, seed int64, checks int) refineRun {
	ctx := context.Background()
	if checks >= 0 {
		ctx = &countdownCtx{Context: ctx, left: checks}
	}
	tr := obs.NewTrace("refine")
	best, cost, err := kernel(obs.WithTrace(ctx, tr), macros, nets, initial, iterations, seed)
	run := refineRun{best: best, cost: cost}
	if err != nil {
		run.err = err.Error()
	}
	for _, s := range tr.Spans() {
		for _, a := range s.Attrs {
			if s.Name == "floorplan.refine" && a.Key == "moves" {
				run.moves = a.Value
			}
		}
	}
	return run
}

// countdownCtx reports cancellation from its (left+1)-th Err call on.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzFloorplan decodes a refine instance. The first three bytes pick
// the macro count (2–10), the initial placement (Place, Stack, or a
// strip whose neighbours overlap by half, so that illegal candidates
// are common) and whether one macro is left out of the initial
// placement map. The rest gives each macro a size, an origin off
// (0, 0) and up to three edge ports with odd-width rects (so port
// centres truncate), then up to seven nets of 2–4 pins, some naming a
// port the macro lacks. Place and Stack see only the resolvable pins;
// the kernels see them all. ok is false when Place finds no legal
// position.
func fuzzFloorplan(data []byte) (macros []Macro, nets []Net, initial *Result, ok bool) {
	in := fuzzBytes(data)
	n, mode, drop := 2+in.next()%9, in.next()%3, in.next()
	for i := 0; i < n; i++ {
		w, h := 20+in.next()*7, 20+in.next()*5
		x0, y0 := in.next()-128, in.next()-128
		c := geom.NewCell(fmt.Sprintf("m%d", i))
		c.Abut = geom.R(x0, y0, x0+w, y0+h)
		c.AddShape(tech.Metal1, c.Abut, c.Name)
		for p := 0; p < in.next()%4; p++ {
			along, span := in.next(), 1+in.next()%9
			var r geom.Rect
			switch in.next() % 4 {
			case 0:
				r = geom.R(x0+along%w, y0, x0+along%w+span, y0+1)
			case 1:
				r = geom.R(x0+along%w, y0+h-1, x0+along%w+span, y0+h)
			case 2:
				r = geom.R(x0, y0+along%h, x0+1, y0+along%h+span)
			default:
				r = geom.R(x0+w-1, y0+along%h, x0+w, y0+along%h+span)
			}
			c.AddPort(fmt.Sprintf("p%d", p), tech.Metal2, r, geom.Inner)
		}
		macros = append(macros, Macro{Name: c.Name, Cell: c})
	}
	var resolvable []Net
	for k := in.next() % 8; k > 0; k-- {
		net := Net{Name: fmt.Sprintf("n%d", k)}
		res := Net{Name: net.Name}
		for p := 2 + in.next()%3; p > 0; p-- {
			m := macros[in.next()%n]
			pin := Pin{Macro: m.Name, Port: fmt.Sprintf("p%d", in.next()%4)} // p3 never exists
			net.Pins = append(net.Pins, pin)
			if _, ok := m.Cell.Port(pin.Port); ok {
				res.Pins = append(res.Pins, pin)
			}
		}
		nets = append(nets, net)
		resolvable = append(resolvable, res)
	}
	var err error
	switch mode {
	case 0:
		initial, err = Place(tech.CDA07, macros, resolvable)
	case 1:
		initial, err = Stack(tech.CDA07, macros, resolvable)
	default:
		initial = &Result{Placements: map[string]Placement{}}
		x := 0
		for i := range macros {
			b := macros[i].Cell.Bounds()
			initial.Placements[macros[i].Name] = Placement{
				Orient: geom.AllOrients[in.next()%len(geom.AllOrients)],
				At:     geom.Point{X: x - b.X0, Y: -b.Y0},
			}
			x += b.W() / 2
		}
	}
	if err != nil {
		return nil, nil, nil, false
	}
	if drop%2 == 1 {
		delete(initial.Placements, macros[(drop/2)%n].Name)
	}
	return macros, nets, initial, true
}
