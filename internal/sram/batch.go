// Bit-parallel fault simulation: BatchArray packs up to 64 independent
// single-fault machines into the bits of a uint64, so one march pass
// evaluates 64 injected faults at once — the classic parallel-fault
// technique from the functional-BIST literature. Lane L of every
// packed word is an independent copy of the RAM carrying at most one
// injected fault; lanes without a fault behave as a fault-free
// reference and never miscompare.
//
// The engine reproduces Array's fault semantics exactly (the
// differential test in batch_test.go pins scalar and batch to
// identical verdicts over every FaultKind × test × background set),
// with one documented restriction: a lane holds at most one fault, so
// coupling cascades — a victim that is itself another fault's
// aggressor — cannot arise, and address decoder faults (which remap
// whole accesses rather than cell values) are out of scope.
package sram

import (
	"repro/internal/cerr"
	"repro/internal/chaos"
)

// BatchLanes is the number of independent fault machines one
// BatchArray evaluates per march pass: the width of the packing word.
const BatchLanes = 64

// batchChaos is the injector consulted at the sim.batch checkpoint.
// Nil (the default) is a zero-cost no-op; the chaos drills install a
// scripted injector via SetBatchChaos.
var batchChaos *chaos.Injector

// SetBatchChaos installs the fault injector the batch engine consults
// when a run starts. Not safe for concurrent use with running batches;
// call during setup.
func SetBatchChaos(in *chaos.Injector) { batchChaos = in }

// batchFault is one lane's injected defect in packed form.
type batchFault struct {
	lane int       // bit position of this fault's machine
	vi   int       // victim cell index
	kind FaultKind // fault model
	ai   int       // aggressor cell index (coupling kinds)
	rise bool      // sensitising transition/state (coupling kinds)
	forc bool      // forced victim value (CFID/CFST)
	// lastTouch is the Wait-tick at which the victim was last accessed
	// (DRF kinds). The march sequence is lane-invariant, so one tick per
	// fault matches the scalar model's per-cell tracking exactly.
	lastTouch int64
}

// BatchArray is the bit-parallel counterpart of Array: cells[ci] holds
// lane L's value of cell ci in bit L. It implements march.BatchDUT.
type BatchArray struct {
	cfg   Config
	cells []uint64 // (row, col) -> 64 lane values, row-major
	// colSense is the last sensed value per physical column, per lane
	// (SOF sense-latch model).
	colSense []uint64
	faults   []batchFault
	// faultsAt / aggrAt index faults by victim / aggressor cell, in
	// injection order (the scalar model applies a cell's faults in
	// insertion order; with one fault per lane the order only matters
	// for determinism, which slice append preserves).
	faultsAt [][]int32
	aggrAt   [][]int32
	used     uint64 // lanes carrying a fault
	tick     int64

	// scratch / oldScratch are per-bit transition and old-value masks
	// reused across writes so the hot path never allocates.
	scratch    []uint64
	oldScratch []uint64
}

// NewBatch builds a fault-free 64-lane batch array. The sim.batch
// chaos checkpoint fires here so scripted drills can fail or delay
// batch-kernel construction deterministically.
func NewBatch(cfg Config) (*BatchArray, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := batchChaos.Point(chaos.PointSimBatch); err != nil {
		return nil, err
	}
	n := cfg.TotalRows() * cfg.Cols()
	return &BatchArray{
		cfg:        cfg,
		cells:      make([]uint64, n),
		colSense:   make([]uint64, cfg.Cols()),
		faultsAt:   make([][]int32, n),
		aggrAt:     make([][]int32, n),
		scratch:    make([]uint64, cfg.BPW),
		oldScratch: make([]uint64, cfg.BPW),
	}, nil
}

// Words returns the number of addressable regular words.
func (b *BatchArray) Words() int { return b.cfg.Words }

func (b *BatchArray) cellIndex(c CellAddr) int { return c.Row*b.cfg.Cols() + c.Col }

// Inject places lane's single fault at the victim cell, with the same
// validation as Array.Inject plus the one-fault-per-lane restriction
// that keeps the packed semantics cascade-free.
func (b *BatchArray) Inject(lane int, victim CellAddr, f Fault) error {
	if lane < 0 || lane >= BatchLanes {
		return cerr.New(cerr.CodeInvalidParams, "sram: batch lane %d out of range [0,%d)", lane, BatchLanes)
	}
	if b.used&(1<<uint(lane)) != 0 {
		return cerr.New(cerr.CodeInvalidParams, "sram: batch lane %d already carries a fault", lane)
	}
	if victim.Row < 0 || victim.Row >= b.cfg.TotalRows() || victim.Col < 0 || victim.Col >= b.cfg.Cols() {
		return cerr.New(cerr.CodeInvalidParams, "sram: victim %v out of range", victim)
	}
	vi := b.cellIndex(victim)
	bf := batchFault{lane: lane, vi: vi, kind: f.Kind, lastTouch: b.tick}
	switch f.Kind {
	case CFID, CFIN, CFST:
		ai := b.cellIndex(f.Aggressor)
		if ai == vi {
			return cerr.New(cerr.CodeInvalidParams, "sram: coupling fault aggressor == victim %v", victim)
		}
		if f.Aggressor.Row < 0 || f.Aggressor.Row >= b.cfg.TotalRows() ||
			f.Aggressor.Col < 0 || f.Aggressor.Col >= b.cfg.Cols() {
			return cerr.New(cerr.CodeInvalidParams, "sram: aggressor %v out of range", f.Aggressor)
		}
		bf.ai = ai
		bf.rise = f.AggrRise
		bf.forc = f.Forced
		b.aggrAt[ai] = append(b.aggrAt[ai], int32(len(b.faults)))
	}
	b.faultsAt[vi] = append(b.faultsAt[vi], int32(len(b.faults)))
	b.faults = append(b.faults, bf)
	b.used |= 1 << uint(lane)
	return nil
}

// Write stores one word in every lane at once. All lanes execute the
// same march sequence, so the written data is lane-invariant; faults
// then perturb their own lane bit. Mirrors Array.writeRowWord's
// two-phase semantics: all bits of the word switch together, then the
// transitions fixed by the write couple into their victims.
func (b *BatchArray) Write(addr int, data uint64) {
	row, cs := addr/b.cfg.BPC, addr%b.cfg.BPC
	bpw, bpc := b.cfg.BPW, b.cfg.BPC
	base := row * b.cfg.Cols()
	// Phase 1: write every bit, recording per-lane transitions.
	for bit := 0; bit < bpw; bit++ {
		ci := base + bit*bpc + cs
		old := b.cells[ci]
		var eff uint64
		if data>>uint(bit)&1 == 1 {
			eff = ^uint64(0)
		}
		v := eff != 0
		for _, fi := range b.faultsAt[ci] {
			f := &b.faults[fi]
			m := uint64(1) << uint(f.lane)
			switch f.kind {
			case SA0:
				eff &^= m
			case SA1:
				eff |= m
			case TFU:
				// Cannot rise: writing 1 leaves the lane at its old value.
				if v {
					eff = eff&^m | old&m
				}
			case TFD:
				// Cannot fall: writing 0 leaves the lane at its old value.
				if !v {
					eff = eff&^m | old&m
				}
			case SOF:
				// Cell not connected: the write is lost in this lane.
				eff = eff&^m | old&m
			case DRF0, DRF1:
				f.lastTouch = b.tick
			}
		}
		b.cells[ci] = eff
		b.scratch[bit] = old ^ eff // per-lane transition mask
		b.oldScratch[bit] = old
	}
	// Phase 2: aggressor transitions couple into victims. The
	// transition set is phase 1's, so a victim's own change (which the
	// single-fault-per-lane restriction keeps from being an aggressor)
	// never re-triggers coupling.
	for bit := 0; bit < bpw; bit++ {
		changed := b.scratch[bit]
		if changed == 0 {
			continue
		}
		ci := base + bit*bpc + cs
		if len(b.aggrAt[ci]) == 0 {
			continue
		}
		old := b.oldScratch[bit]
		newv := old ^ changed
		roseMask := ^old & newv
		fellMask := old & ^newv
		for _, fi := range b.aggrAt[ci] {
			f := &b.faults[fi]
			m := uint64(1) << uint(f.lane)
			sens := fellMask
			if f.rise {
				sens = roseMask
			}
			if sens&m == 0 {
				continue
			}
			switch f.kind {
			case CFID:
				if f.forc {
					b.cells[f.vi] |= m
				} else {
					b.cells[f.vi] &^= m
				}
			case CFIN:
				b.cells[f.vi] ^= m
			}
		}
	}
}

// ReadBits senses one word in every lane, writing bit b's 64 lane
// values into out[b]. Mirrors Array.readCell per bit: stuck-at,
// stuck-open (column sense latch), retention decay and state coupling,
// then the sensed value latches into the column sense amp.
func (b *BatchArray) ReadBits(addr int, out []uint64) {
	row, cs := addr/b.cfg.BPC, addr%b.cfg.BPC
	bpw, bpc := b.cfg.BPW, b.cfg.BPC
	base := row * b.cfg.Cols()
	for bit := 0; bit < bpw; bit++ {
		col := bit*bpc + cs
		ci := base + col
		v := b.cells[ci]
		for _, fi := range b.faultsAt[ci] {
			f := &b.faults[fi]
			m := uint64(1) << uint(f.lane)
			switch f.kind {
			case SA0:
				v &^= m
			case SA1:
				v |= m
			case SOF:
				// Sense amp keeps the column's previous value.
				v = v&^m | b.colSense[col]&m
			case DRF0:
				if b.tick-f.lastTouch >= RetentionTicks {
					b.cells[ci] &^= m
					v &^= m
				}
				f.lastTouch = b.tick
			case DRF1:
				if b.tick-f.lastTouch >= RetentionTicks {
					b.cells[ci] |= m
					v |= m
				}
				f.lastTouch = b.tick
			case CFST:
				sens := ^b.cells[f.ai]
				if f.rise {
					sens = b.cells[f.ai]
				}
				if sens&m != 0 {
					if f.forc {
						v |= m
					} else {
						v &^= m
					}
				}
			}
		}
		b.colSense[col] = v
		out[bit] = v
	}
}

// Wait advances the retention clock by one tick, as Array.Wait does.
func (b *BatchArray) Wait() { b.tick++ }
