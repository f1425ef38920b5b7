package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/canon"
	"repro/internal/sweep"
)

// The request space every workload draws from: 7 word counts × 8 word
// widths × 3 column muxes × 4 spare counts × 4 buffer sizes × 3 decks ×
// 3 corners × 4 strap spacings × 3 refine budgets, about 290k valid
// geometries. Every combination passes compiler.Params.Validate.
var (
	spaceWords  = []int{1 << 8, 1 << 9, 1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14}
	spaceBPW    = []int{8, 16, 24, 32, 48, 64, 96, 128}
	spaceBPC    = []int{4, 8, 16}
	spaceSpares = []int{0, 4, 8, 16}
	spaceBuf    = []int{1, 2, 3, 4}
	spaceDecks  = []string{"cda05u3m1p", "cda07u3m1p", "mos06u3m1pHP"}
	spaceCorner = []string{"typ", "slow", "fast"}
	spaceStrap  = []int{0, 16, 32, 64}
	// Half the compiles skip the floorplan refiner; the rest anneal for
	// 2000 or 8000 moves. Refine requests are the compile tail, and the
	// refiner's starts are the one stage the Parallelism knob can split,
	// so without them the knob's verdict would be decided by the input.
	spaceRefine = []int{0, 0, 2000, 8000}
)

// Fleet sweeps: 2 decks × 4 word counts × 2 spare counts × 4 defect
// densities = 64 points over 16 unique compiles, then 2 Monte-Carlo
// variants of the first point. The sigmas stay below 0.07, where
// mcyield's sigma level overflows to +Inf for a few seeds (README).
var (
	sweepDefects = []float64{0, 2, 5, 10}
	mcSamples    = 2000
	mcSigmas     = []float64{0.03, 0.05}
)

// Seeded streams: every random choice of a workload comes from a PCG
// stream keyed by (seed, stream), so the request bodies are a pure
// function of -seed.
const (
	streamCold uint64 = iota + 1
	streamWorkingSet
	streamFleet
	streamReader // + client index
)

// geometry is one point of the request space. It is comparable, so it
// keys the without-replacement set directly.
type geometry struct {
	Words, BPW, BPC, Spares, Buf, Strap, Refine int
	Deck, Corner                                string
}

func (g geometry) request() canon.Request {
	return canon.Request{
		Words: g.Words, BPW: g.BPW, BPC: g.BPC, Spares: g.Spares,
		BufSize: g.Buf, StrapCells: g.Strap, RefineIterations: g.Refine,
		Process: g.Deck, Corner: g.Corner,
	}
}

// compileOp is one POST /v1/compile with the answers the oracle checks
// it against: the content key the harness computes itself, and the
// geometry the report's organisation must echo.
type compileOp struct {
	body []byte
	key  string
	geom geometry
}

func newCompileOp(g geometry) (compileOp, error) {
	body, err := json.Marshal(g.request())
	if err != nil {
		return compileOp{}, err
	}
	key, err := keyOf(body)
	if err != nil {
		return compileOp{}, fmt.Errorf("geometry %+v: %w", g, err)
	}
	return compileOp{body: body, key: key, geom: g}, nil
}

// keyOf resolves a wire body exactly as the daemon does.
func keyOf(body []byte) (string, error) {
	req, err := canon.ParseRequest(body)
	if err != nil {
		return "", err
	}
	p, err := req.Params()
	if err != nil {
		return "", err
	}
	return canon.KeyOfParams(p)
}

// drawer hands out geometries without replacement, so a "cold"
// request is never a repeat.
//
// Draws come in blocks of 224: every (words, bpw, refine slot) once in
// seeded order, with each other dimension balanced across the block.
// A plain random draw lets the share of big or refined arrays swing
// from seed to seed, and the medians with it; the balanced block keeps
// the mix fixed while the seed still picks every request.
type drawer struct {
	rng   *rand.Rand
	used  map[geometry]bool
	block []geometry
}

func newDrawer(seed, stream uint64) *drawer {
	return &drawer{rng: rand.New(rand.NewPCG(seed, stream)), used: map[geometry]bool{}}
}

func (d *drawer) next() geometry {
	if len(d.block) == 0 {
		d.block = d.newBlock()
	}
	g := d.block[0]
	d.block = d.block[1:]
	for d.used[g] {
		d.redraw(&g)
	}
	d.used[g] = true
	return g
}

func (d *drawer) nextOp() (compileOp, error) { return newCompileOp(d.next()) }

func (d *drawer) newBlock() []geometry {
	n := len(spaceWords) * len(spaceBPW) * len(spaceRefine)
	bpc := balanced(d.rng, n, spaceBPC)
	spares := balanced(d.rng, n, spaceSpares)
	buf := balanced(d.rng, n, spaceBuf)
	decks := balanced(d.rng, n, spaceDecks)
	corners := balanced(d.rng, n, spaceCorner)
	straps := balanced(d.rng, n, spaceStrap)
	block := make([]geometry, 0, n)
	for _, w := range spaceWords {
		for _, b := range spaceBPW {
			for _, r := range spaceRefine {
				i := len(block)
				block = append(block, geometry{
					Words: w, BPW: b, Refine: r,
					BPC: bpc[i], Spares: spares[i], Buf: buf[i],
					Deck: decks[i], Corner: corners[i], Strap: straps[i],
				})
			}
		}
	}
	d.rng.Shuffle(n, func(i, j int) { block[i], block[j] = block[j], block[i] })
	return block
}

// redraw re-picks the unstratified dimensions of a geometry that was
// already drawn.
func (d *drawer) redraw(g *geometry) {
	g.BPC = pick(d.rng, spaceBPC)
	g.Spares = pick(d.rng, spaceSpares)
	g.Buf = pick(d.rng, spaceBuf)
	g.Deck = pick(d.rng, spaceDecks)
	g.Corner = pick(d.rng, spaceCorner)
	g.Strap = pick(d.rng, spaceStrap)
}

// balanced returns n values cycling through vals, shuffled.
func balanced[T any](rng *rand.Rand, n int, vals []T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = vals[i%len(vals)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func pick[T any](rng *rand.Rand, vals []T) T { return vals[rng.IntN(len(vals))] }

// pickN returns k distinct values of vals in their original order.
func pickN[T any](rng *rand.Rand, vals []T, k int) []T {
	idx := rng.Perm(len(vals))[:k]
	slices.Sort(idx)
	out := make([]T, k)
	for i, j := range idx {
		out[i] = vals[j]
	}
	return out
}

// iteration is one fleet-sweep round: a routed cold compile and its
// routed hit, a fresh 64-point sweep and its identical repeat, and a
// Monte-Carlo variant of the sweep's first point.
type iteration struct {
	compile compileOp
	sweep   []byte
	mc      []byte
	mcSeed  int64
}

func (d *drawer) nextIteration() (iteration, error) {
	op, err := d.nextOp()
	if err != nil {
		return iteration{}, err
	}
	it := iteration{compile: op}
	for {
		base := geometry{
			BPW: pick(d.rng, spaceBPW), BPC: pick(d.rng, spaceBPC),
			Buf: pick(d.rng, spaceBuf), Corner: pick(d.rng, spaceCorner),
			Strap: pick(d.rng, spaceStrap),
		}
		decks := pickN(d.rng, spaceDecks, 2)
		words := pickN(d.rng, spaceWords, 4)
		spares := pickN(d.rng, spaceSpares, 2)
		var pts []geometry
		fresh := true
		for _, dk := range decks {
			for _, w := range words {
				for _, sp := range spares {
					g := base
					g.Deck, g.Words, g.Spares = dk, w, sp
					fresh = fresh && !d.used[g]
					pts = append(pts, g)
				}
			}
		}
		if !fresh {
			continue
		}
		for _, g := range pts {
			d.used[g] = true
		}
		spec := sweep.Spec{Base: pts[0].request(), Axes: sweep.Axes{
			Process: decks, Words: words, Spares: spares, Defects: sweepDefects,
		}}
		if it.sweep, err = json.Marshal(spec); err != nil {
			return iteration{}, err
		}
		it.mcSeed = d.rng.Int64N(1<<52) + 1 // exact in a JSON float
		mc := sweep.Spec{Base: pts[0].request(), Axes: sweep.Axes{
			MCSamples: []int{mcSamples}, MCSigma: mcSigmas,
		}}
		mc.Base.MCSeed = it.mcSeed
		if it.mc, err = json.Marshal(mc); err != nil {
			return iteration{}, err
		}
		return it, nil
	}
}

// zipfReader draws repeat requests over a working set, Zipf(s=1.1)
// by draw order: the first geometry drawn is the hottest.
type zipfReader struct {
	z   *rand.Zipf
	set []compileOp
}

func newZipfReader(seed uint64, client int, set []compileOp) *zipfReader {
	rng := rand.New(rand.NewPCG(seed, streamReader+uint64(client)))
	return &zipfReader{z: rand.NewZipf(rng, 1.1, 1, uint64(len(set)-1)), set: set}
}

func (r *zipfReader) next() compileOp { return r.set[r.z.Uint64()] }

// sampled reports whether op idx of a seeded run joins the 1-in-50
// determinism differential.
func sampled(seed uint64, idx int) bool {
	z := seed ^ (uint64(idx)+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return (z^z>>31)%50 == 0
}
