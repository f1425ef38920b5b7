package floorplan

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/cerr"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/tech"
)

// ctxCheckMoves is how many annealing moves run between context
// checks; checking every move would put a timer read in the hot loop.
const ctxCheckMoves = 256

// maxRefineIterations caps the annealing budget so that adversarial
// parameters cannot demand an effectively unbounded run. The cap is
// generous: production compiles use a few thousand iterations.
const maxRefineIterations = 10_000_000

// maxRefineStarts caps the multi-start fan-out.
const maxRefineStarts = 64

// RefineMultiCtx improves a greedy floorplan by simulated annealing
// over macro placements: random re-orientation, relocation against
// another macro's edge, and pairwise position swaps, accepted under a
// geometric cooling schedule. The cost is the same outline-area /
// rectangularity / wirelength blend the constructive pass optimises,
// so refining can only confirm or improve it. An iteration budget
// above maxRefineIterations is rejected with cerr.ErrInvalidParams
// before any work runs.
//
// It runs `starts` independent annealing starts with the
// deterministic seed sequence seed, seed+1, …, seed+starts-1, the
// total move budget split evenly across starts (earlier starts absorb
// the remainder), and returns the floorplan of the winning start.
//
// The winner is chosen by (cost, seed): lowest annealing cost first,
// ties broken by the lowest seed. Every start is deterministic given
// its seed and budget share, and the tiebreak is scheduling-blind, so
// the result is byte-identical whether the starts run sequentially or
// concurrently — `par` only bounds how many run at once (through
// cerr.Parallel) and never influences the outcome. Each start records
// its own "floorplan.refine" span (attrs: seed, moves, budget), so
// traces nest correctly under the caller's floorplan stage span even
// when starts interleave.
//
// On context expiry the in-flight starts return their best-so-far
// placements with a cerr.ErrBudgetExceeded; the winner among the
// partial results is still returned alongside the budget error, so
// callers keep a legal floorplan as a diagnostic (the compiler's
// degradation ladder records the stop instead of failing). A start that
// panics returns no floorplan and a typed cerr.ErrInternal, at any par.
func RefineMultiCtx(ctx context.Context, p *tech.Process, macros []Macro, nets []Net, initial *Result, iterations int, seed int64, starts, par int) (*Result, error) {
	if iterations <= 0 {
		return initial, nil
	}
	if iterations > maxRefineIterations {
		return initial, cerr.New(cerr.CodeInvalidParams,
			"floorplan: refine budget %d exceeds cap %d", iterations, maxRefineIterations)
	}
	if starts < 1 {
		starts = 1
	}
	if starts > maxRefineStarts {
		return initial, cerr.New(cerr.CodeInvalidParams,
			"floorplan: %d refine starts exceed cap %d", starts, maxRefineStarts)
	}
	if starts > iterations {
		starts = iterations // every start must get at least one move
	}

	type outcome struct {
		best map[string]Placement
		cost float64
		err  error
	}
	outs := make([]outcome, starts)
	share := iterations / starts
	extra := iterations % starts

	// A start's budget stop is its outcome, not a failure, so the tasks
	// fail only by a recovered panic.
	tasks := make([]func() error, starts)
	for i := range tasks {
		tasks[i] = func() error {
			budget := share
			if i < extra {
				budget++
			}
			best, cost, err := refineOne(ctx, macros, nets, initial, budget, seed+int64(i))
			outs[i] = outcome{best: best, cost: cost, err: err}
			return nil
		}
	}
	if err := cerr.Parallel("floorplan", par, tasks...); err != nil {
		return nil, err
	}

	// Winner by (cost, seed): strictly-lower cost wins; equal cost
	// keeps the earlier seed. Scheduling order cannot influence this.
	win := 0
	var budgetErr error
	for i := 0; i < starts; i++ {
		if outs[i].err != nil && budgetErr == nil {
			budgetErr = outs[i].err
		}
		if outs[i].cost < outs[win].cost {
			win = i
		}
	}

	// Rebuild the final result from the winning placements (on budget
	// expiry this is the best-so-far partial answer).
	byName := macrosByName(macros)
	st := &state{p: p, placed: outs[win].best, byName: byName, nets: nets}
	for i := range macros {
		st.boxes = append(st.boxes, placedBounds(byName[macros[i].Name], outs[win].best[macros[i].Name]))
		st.bbox = st.bbox.Union(st.boxes[len(st.boxes)-1])
	}
	res, err := st.finish(macros)
	if err != nil {
		return res, err
	}
	return res, budgetErr
}

// macrosByName indexes a macro slice; the map values point into the
// slice, which callers must treat as read-only for the map's life.
func macrosByName(macros []Macro) map[string]*Macro {
	byName := make(map[string]*Macro, len(macros))
	for i := range macros {
		byName[macros[i].Name] = &macros[i]
	}
	return byName
}

// refineOne is one deterministic annealing start: it owns its RNG and
// placement slices and shares only read-only inputs (macros, nets,
// initial), so any number of starts may run concurrently. It returns
// the best placements found, their annealing cost, and a typed budget
// error when ctx expired mid-run.
//
// Placements live in slots indexed by position in macros (names are
// unique, as Place and Stack enforce). Each move rewrites at most two
// slots in place and is undone if rejected, so no move allocates. The
// kernel is byte-identical to the original map-based one, kept as the
// test oracle refineOneRef; TestRefinedCompileGolden and
// FuzzRefineDifferential pin that. Any change must keep:
//   - the RNG draw order: Intn(3) picks the move kind, then the move
//     draws its operands; a degenerate relocate (n == m) or swap
//     (a == b) continues without cooling;
//   - rng.Float64 drawn only when the candidate does not improve
//     (cc >= curCost);
//   - the wirelength summed in net order, then pin order;
//   - port centres taken after translation: Rect.Center truncates, so
//     translating a precomputed centre would move odd-sum coordinates
//     (the per-orientation rects are precomputed, the centres are not);
//   - moves = it on a budget stop;
//   - map membership: a macro absent from initial.Placements sits at
//     the zero Placement, its pins count towards wirelength but its
//     box joins neither the outline nor the overlap check until a
//     move places it.
func refineOne(ctx context.Context, macros []Macro, nets []Net, initial *Result, iterations int, seed int64) (map[string]Placement, float64, error) {
	moves := 0
	var endSpan func(...obs.Attr)
	ctx, endSpan = obs.Start(ctx, "floorplan.refine")
	defer func() {
		endSpan(obs.Int("moves", moves), obs.Int("budget", iterations),
			obs.Int("seed", int(seed)))
	}()
	a := newAnnealer(macros, nets, initial)
	n := len(macros)
	rng := rand.New(rand.NewSource(seed))

	curCost := a.cost()
	best := append([]slot(nil), a.cur...)
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
		switch rng.Intn(3) {
		case 0: // re-orient in place (keep the lower-left corner)
			i := rng.Intn(n)
			old := a.cur[i].box
			pl := a.cur[i].pl
			pl.Orient = geom.AllOrients[rng.Intn(len(geom.AllOrients))]
			tb := a.bounds[i][orientIndex(pl.Orient)]
			pl.At = geom.Point{X: old.X0 - tb.X0, Y: old.Y0 - tb.Y0}
			a.set(i, pl)
		case 1: // relocate against a random other macro's edge
			i := rng.Intn(n)
			j := rng.Intn(n)
			if i == j {
				continue
			}
			anchor := a.cur[j].box
			pl := a.cur[i].pl
			tb := a.bounds[i][orientIndex(pl.Orient)]
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
			a.set(i, pl)
		default: // swap two macros' anchor corners
			i := rng.Intn(n)
			j := rng.Intn(n)
			if i == j {
				continue
			}
			ba, bb := a.cur[i].box, a.cur[j].box
			pa, pb := a.cur[i].pl, a.cur[j].pl
			ta := a.bounds[i][orientIndex(pa.Orient)]
			tbx := a.bounds[j][orientIndex(pb.Orient)]
			pa.At = geom.Point{X: bb.X0 - ta.X0, Y: bb.Y0 - ta.Y0}
			pb.At = geom.Point{X: ba.X0 - tbx.X0, Y: ba.Y0 - tbx.Y0}
			a.set(i, pa)
			a.set(j, pb)
		}
		if !a.legal() {
			a.revert()
			temp *= cool
			continue
		}
		cc := a.cost()
		if cc < curCost || rng.Float64() < math.Exp((curCost-cc)/math.Max(temp, 1)) {
			a.keep()
			curCost = cc
			if cc < bestCost {
				copy(best, a.cur)
				bestCost = cc
			}
		} else {
			a.revert()
		}
		temp *= cool
	}

	out := make(map[string]Placement, n)
	for i, s := range best {
		if s.present {
			out[macros[i].Name] = s.pl
		}
	}
	return out, bestCost, budgetErr
}

// slot is one macro's annealing state.
type slot struct {
	pl  Placement
	box geom.Rect // placed bounds under pl
	// present reports that the macro has a placement: it had one in
	// the initial floorplan or a move has placed it since.
	present bool
}

// pinRect is a net pin resolved to its macro slot, with the port rect
// under each orientation (indexed by orientIndex).
type pinRect struct {
	slot  int
	rects [8]geom.Rect
}

// annealer holds one start's placements and the geometry looked up
// once per start.
type annealer struct {
	bounds [][8]geom.Rect // per slot: cell bounds under each orientation
	nets   [][]pinRect    // per net: the pins whose port exists, in pin order
	cur    []slot
	undo   []undoEntry // slots rewritten by the pending move
}

type undoEntry struct {
	i   int
	old slot
}

// orientIndex maps an orientation to 0..7. TransformPoint reads only
// Mirror and Rot&3, so orientations with equal indexes transform
// every rect alike.
func orientIndex(o geom.Orient) int {
	i := o.Rot & 3
	if o.Mirror {
		i += 4
	}
	return i
}

// orientRects returns r under each orientation, by orientIndex.
func orientRects(r geom.Rect) [8]geom.Rect {
	var out [8]geom.Rect
	for i := range out {
		out[i] = geom.TransformRect(r, geom.Orient{Rot: i & 3, Mirror: i >= 4})
	}
	return out
}

func newAnnealer(macros []Macro, nets []Net, initial *Result) *annealer {
	a := &annealer{
		bounds: make([][8]geom.Rect, len(macros)),
		nets:   make([][]pinRect, len(nets)),
		cur:    make([]slot, len(macros)),
		undo:   make([]undoEntry, 0, 2),
	}
	slotOf := make(map[string]int, len(macros))
	for i := range macros {
		slotOf[macros[i].Name] = i
		a.bounds[i] = orientRects(macros[i].Cell.Bounds())
		pl, ok := initial.Placements[macros[i].Name]
		a.cur[i] = slot{pl: pl, box: a.placed(i, pl), present: ok}
	}
	for k, net := range nets {
		for _, pin := range net.Pins {
			i, ok := slotOf[pin.Macro]
			if !ok {
				continue // Place and Stack reject such nets
			}
			if pt, ok := macros[i].Cell.Port(pin.Port); ok {
				a.nets[k] = append(a.nets[k], pinRect{slot: i, rects: orientRects(pt.Rect)})
			}
		}
	}
	return a
}

// placed is placedBounds of slot i's macro under pl.
func (a *annealer) placed(i int, pl Placement) geom.Rect {
	return a.bounds[i][orientIndex(pl.Orient)].Translate(pl.At)
}

// set places slot i at pl, logging its previous state for revert.
func (a *annealer) set(i int, pl Placement) {
	a.undo = append(a.undo, undoEntry{i: i, old: a.cur[i]})
	a.cur[i] = slot{pl: pl, box: a.placed(i, pl), present: true}
}

// keep accepts the pending move.
func (a *annealer) keep() { a.undo = a.undo[:0] }

// revert undoes the pending move.
func (a *annealer) revert() {
	for k := len(a.undo) - 1; k >= 0; k-- {
		a.cur[a.undo[k].i] = a.undo[k].old
	}
	a.undo = a.undo[:0]
}

// legal reports whether the placed boxes are pairwise disjoint.
func (a *annealer) legal() bool {
	for i := range a.cur {
		if !a.cur[i].present {
			continue
		}
		for j := i + 1; j < len(a.cur); j++ {
			if a.cur[j].present && a.cur[i].box.Overlaps(a.cur[j].box) {
				return false
			}
		}
	}
	return true
}

// cost is the annealing objective: outline area with an aspect-ratio
// penalty, plus the port-centre chain wirelength scaled by the
// outline's side.
func (a *annealer) cost() float64 {
	var bbox geom.Rect
	for i := range a.cur {
		if a.cur[i].present {
			bbox = bbox.Union(a.cur[i].box)
		}
	}
	area := float64(bbox.Area())
	w, h := float64(bbox.W()), float64(bbox.H())
	aspect := 1.0
	if w > 0 && h > 0 {
		aspect = math.Max(w, h) / math.Min(w, h)
	}
	wl := 0.0
	for _, pins := range a.nets {
		var prev geom.Point
		for k := range pins {
			pin := &pins[k] // by pointer: the rect table is 256 bytes
			pl := a.cur[pin.slot].pl
			c := pin.rects[orientIndex(pl.Orient)].Translate(pl.At).Center()
			if k > 0 {
				wl += math.Abs(float64(c.X-prev.X)) + math.Abs(float64(c.Y-prev.Y))
			}
			prev = c
		}
	}
	return area*(1+0.5*(aspect-1)) + wl*(math.Sqrt(area)+1)/8
}
