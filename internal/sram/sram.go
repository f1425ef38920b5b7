// Package sram models the word-oriented, column-multiplexed static RAM
// array that BISRAMGEN generates, including the spare rows, and
// provides the functional fault injector used to evaluate BIST fault
// coverage and BISR repairability.
//
// Geometry follows the paper's column-multiplexed organisation: each
// physical row holds bpc (bits per column) words of bpw (bits per
// word) cells, so a RAM with W words has W/bpc regular rows plus the
// spare rows. Bit i of the word at column-select c sits at physical
// column i*bpc + c (bit interleaving), exactly as a column-muxed array
// wires its I/O subarrays.
package sram

import (
	"math/rand"

	"repro/internal/cerr"
)

// Config describes one RAM instance.
type Config struct {
	Words     int // number of addressable words (power of 2)
	BPW       int // bits per word
	BPC       int // bits per column (column mux ratio, power of 2)
	SpareRows int // number of spare rows (paper supports 4, 8, 16)
}

// Validate checks the configuration invariants.
func (c Config) Validate() error {
	if c.Words <= 0 || c.BPW <= 0 || c.BPC <= 0 {
		return cerr.New(cerr.CodeInvalidParams, "sram: non-positive geometry %+v", c)
	}
	if c.BPC&(c.BPC-1) != 0 {
		return cerr.New(cerr.CodeInvalidParams, "sram: bpc %d must be a power of 2", c.BPC)
	}
	if c.Words%c.BPC != 0 {
		return cerr.New(cerr.CodeInvalidParams, "sram: words %d not divisible by bpc %d", c.Words, c.BPC)
	}
	if c.BPW > 64 {
		return cerr.New(cerr.CodeInvalidParams, "sram: bpw %d exceeds model word limit 64", c.BPW)
	}
	if c.SpareRows < 0 {
		return cerr.New(cerr.CodeInvalidParams, "sram: negative spare rows")
	}
	return nil
}

// Rows returns the number of regular rows.
func (c Config) Rows() int { return c.Words / c.BPC }

// Cols returns the number of physical columns (bitline pairs).
func (c Config) Cols() int { return c.BPW * c.BPC }

// TotalRows returns regular plus spare rows.
func (c Config) TotalRows() int { return c.Rows() + c.SpareRows }

// Bits returns the number of regular (non-spare) cells.
func (c Config) Bits() int { return c.Words * c.BPW }

// CellAddr locates one physical cell.
type CellAddr struct {
	Row, Col int
}

// FaultKind enumerates the functional fault models, following the IFA
// taxonomy the paper's tests target.
type FaultKind int

// Functional fault models.
const (
	SA0  FaultKind = iota // stuck-at-0
	SA1                   // stuck-at-1
	TFU                   // up-transition fault: cell cannot go 0->1
	TFD                   // down-transition fault: cell cannot go 1->0
	SOF                   // stuck-open: access transistor open; read returns the column's previous sensed value
	DRF0                  // data retention: cell leaks to 0 after the retention time
	DRF1                  // data retention: cell leaks to 1 after the retention time
	CFID                  // idempotent coupling: aggressor transition forces victim to a value
	CFIN                  // inversion coupling: aggressor transition inverts victim
	CFST                  // state coupling: victim forced to a value while aggressor holds a state
)

func (k FaultKind) String() string {
	return [...]string{"SA0", "SA1", "TFU", "TFD", "SOF", "DRF0", "DRF1", "CFID", "CFIN", "CFST"}[k]
}

// Fault is one injected defect on a victim cell.
type Fault struct {
	Kind FaultKind
	// Aggressor is the coupled cell for CFID/CFIN/CFST.
	Aggressor CellAddr
	// AggrRise selects the sensitising aggressor transition for
	// CFID/CFIN (true: 0->1) or the sensitising aggressor state for
	// CFST (true: aggressor=1).
	AggrRise bool
	// Forced is the value the victim is forced to (CFID/CFST).
	Forced bool
}

// RetentionTicks is the number of Wait ticks after which a DRF cell
// loses its value. One Wait models the paper's ~100 ms tristated
// retention delay, which is long enough for a leaky cell to decay.
const RetentionTicks = 1

// Array is the behavioural RAM with injected faults. It implements
// the march.DUT interface.
type Array struct {
	cfg   Config
	cells []bool // (row, col) -> value, row-major over TotalRows
	// faults maps victim cell index to its faults (a cell can have
	// several, e.g. from clustered defects).
	faults map[int][]Fault
	// aggr maps aggressor cell index to victims carrying coupling
	// faults that reference it.
	aggr map[int][]int
	// colSense is the last value sensed per physical column (SOF model).
	colSense []bool
	// lastTouch is the Wait-tick at which each faulty DRF cell was last
	// written or read; only tracked for cells with DRF faults.
	lastTouch map[int]int64
	tick      int64

	// afMap models address decoder faults (AFs): a word address whose
	// decoder selects another address's row/column instead.
	afMap map[int]int

	// wcScratch / oldScratch / newScratch are per-word working buffers
	// reused across accesses so the read/write hot path never
	// allocates. Safe because word accesses never nest: coupling
	// cascades walk cell indices directly, not words.
	wcScratch  []int
	oldScratch []bool
	newScratch []bool
}

// New builds a fault-free array. All cells power up to 0 for model
// determinism.
func New(cfg Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Array{
		cfg:        cfg,
		cells:      make([]bool, cfg.TotalRows()*cfg.Cols()),
		faults:     map[int][]Fault{},
		aggr:       map[int][]int{},
		colSense:   make([]bool, cfg.Cols()),
		lastTouch:  map[int]int64{},
		wcScratch:  make([]int, cfg.BPW),
		oldScratch: make([]bool, cfg.BPW),
		newScratch: make([]bool, cfg.BPW),
	}, nil
}

// MustNew is New for literal known-good configs in tests ONLY. It is
// one of the documented residual panic sites of the cerr panic policy
// (see package cerr): production paths — the compiler, the CLIs, the
// experiment drivers — must use New and propagate the typed error.
func MustNew(cfg Config) *Array {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Config returns the array geometry.
func (a *Array) Config() Config { return a.cfg }

// Words returns the number of addressable regular words.
func (a *Array) Words() int { return a.cfg.Words }

func (a *Array) cellIndex(c CellAddr) int { return c.Row*a.cfg.Cols() + c.Col }

// wordCells returns the physical cells of a word address in a given
// row space. Row = addr/bpc (regular) and col-select = addr%bpc. The
// returned slice is the array's reusable scratch buffer, valid until
// the next word access.
func (a *Array) wordCells(row, colSel int) []int {
	cells := a.wcScratch
	for b := 0; b < a.cfg.BPW; b++ {
		col := b*a.cfg.BPC + colSel
		cells[b] = a.cellIndex(CellAddr{row, col})
	}
	return cells
}

// Inject adds a fault at the victim cell. Coupling faults must name an
// aggressor distinct from the victim.
func (a *Array) Inject(victim CellAddr, f Fault) error {
	if victim.Row < 0 || victim.Row >= a.cfg.TotalRows() || victim.Col < 0 || victim.Col >= a.cfg.Cols() {
		return cerr.New(cerr.CodeInvalidParams, "sram: victim %v out of range", victim)
	}
	vi := a.cellIndex(victim)
	switch f.Kind {
	case CFID, CFIN, CFST:
		ai := a.cellIndex(f.Aggressor)
		if ai == vi {
			return cerr.New(cerr.CodeInvalidParams, "sram: coupling fault aggressor == victim %v", victim)
		}
		if f.Aggressor.Row < 0 || f.Aggressor.Row >= a.cfg.TotalRows() ||
			f.Aggressor.Col < 0 || f.Aggressor.Col >= a.cfg.Cols() {
			return cerr.New(cerr.CodeInvalidParams, "sram: aggressor %v out of range", f.Aggressor)
		}
		a.aggr[ai] = append(a.aggr[ai], vi)
	case DRF0, DRF1:
		a.lastTouch[vi] = a.tick
	}
	a.faults[vi] = append(a.faults[vi], f)
	return nil
}

// InjectRow marks every cell of a physical row stuck (alternating
// SA0/SA1), modelling a row defect such as a broken word line.
func (a *Array) InjectRow(row int) {
	for col := 0; col < a.cfg.Cols(); col++ {
		k := SA0
		if col%2 == 1 {
			k = SA1
		}
		_ = a.Inject(CellAddr{row, col}, Fault{Kind: k})
	}
}

// InjectColumn marks every cell of a physical column stuck at v,
// modelling a bitline defect. The paper notes such defects swamp row
// redundancy and are flagged "Repair Unsuccessful".
func (a *Array) InjectColumn(col int, v bool) {
	k := SA0
	if v {
		k = SA1
	}
	for row := 0; row < a.cfg.TotalRows(); row++ {
		_ = a.Inject(CellAddr{row, col}, Fault{Kind: k})
	}
}

// InjectRandom places n random single-cell faults (uniform cells,
// uniform kinds, adjacent-cell aggressors for coupling faults) using
// the supplied source. It returns the victims.
func (a *Array) InjectRandom(n int, rng *rand.Rand) []CellAddr {
	victims := make([]CellAddr, 0, n)
	kinds := []FaultKind{SA0, SA1, TFU, TFD, SOF, DRF0, DRF1, CFID, CFIN, CFST}
	for i := 0; i < n; i++ {
		v := CellAddr{rng.Intn(a.cfg.TotalRows()), rng.Intn(a.cfg.Cols())}
		k := kinds[rng.Intn(len(kinds))]
		f := Fault{Kind: k}
		if k == CFID || k == CFIN || k == CFST {
			// Neighbouring cell in the same column (physically adjacent).
			ar := v.Row + 1
			if ar >= a.cfg.TotalRows() {
				ar = v.Row - 1
			}
			f.Aggressor = CellAddr{ar, v.Col}
			f.AggrRise = rng.Intn(2) == 0
			f.Forced = rng.Intn(2) == 0
		}
		if err := a.Inject(v, f); err == nil {
			victims = append(victims, v)
		}
	}
	return victims
}

// InjectClustered places approximately n stuck-at defects with
// spatial clustering, the defect morphology behind Stapper's
// negative-binomial yield statistics: defects arrive in clusters
// whose centres are uniform but whose members scatter within a small
// neighbourhood. Clustering concentrates damage into fewer rows,
// which is why clustered wafers yield better under row repair than
// uniform ones at the same defect count. clusterSize is the mean
// defects per cluster (1 = uniform), radius the neighbourhood extent
// in cells.
func (a *Array) InjectClustered(n, clusterSize, radius int, rng *rand.Rand) []CellAddr {
	if clusterSize < 1 {
		clusterSize = 1
	}
	if radius < 1 {
		radius = 1
	}
	victims := make([]CellAddr, 0, n)
	placed := 0
	for placed < n {
		cr := rng.Intn(a.cfg.TotalRows())
		cc := rng.Intn(a.cfg.Cols())
		// Cluster membership ~ 1 + Poisson-ish(clusterSize-1) via a
		// simple geometric draw for determinism and simplicity.
		members := 1
		for members < clusterSize*3 && rng.Float64() < float64(clusterSize-1)/float64(clusterSize) {
			members++
		}
		for m := 0; m < members && placed < n; m++ {
			row := cr + rng.Intn(2*radius+1) - radius
			col := cc + rng.Intn(2*radius+1) - radius
			if row < 0 || row >= a.cfg.TotalRows() || col < 0 || col >= a.cfg.Cols() {
				continue
			}
			k := SA0
			if rng.Intn(2) == 1 {
				k = SA1
			}
			if err := a.Inject(CellAddr{row, col}, Fault{Kind: k}); err == nil {
				victims = append(victims, CellAddr{row, col})
				placed++
			}
		}
	}
	return victims
}

// FaultCount returns the number of injected fault records.
func (a *Array) FaultCount() int {
	n := 0
	for _, fs := range a.faults {
		n += len(fs)
	}
	return n
}

// writeCell stores v honouring stuck-at, transition and stuck-open
// semantics, returning the previous value. Coupling effects are fired
// by the caller after the whole word has been written: all bits of a
// word switch simultaneously in the real array, so an intra-word
// aggressor transition corrupts its victim regardless of bit order.
func (a *Array) writeCell(ci int, v bool) (old bool) {
	old = a.cells[ci]
	eff := v
	for _, f := range a.faults[ci] {
		switch f.Kind {
		case SA0:
			eff = false
		case SA1:
			eff = true
		case TFU:
			if !old && v {
				eff = old // cannot rise
			}
		case TFD:
			if old && !v {
				eff = old // cannot fall
			}
		case SOF:
			eff = old // cell not connected: write lost
		}
	}
	a.cells[ci] = eff
	if drf := a.lastTouch; drf != nil {
		if _, ok := drf[ci]; ok {
			drf[ci] = a.tick
		}
	}
	return old
}

// fireCoupling applies coupling effects of a transition on aggressor
// cell ai.
func (a *Array) fireCoupling(ai int, old, new bool) {
	rose := !old && new
	for _, vi := range a.aggr[ai] {
		for _, f := range a.faults[vi] {
			switch f.Kind {
			case CFID:
				if a.cellIndex(f.Aggressor) == ai && f.AggrRise == rose {
					prev := a.cells[vi]
					a.cells[vi] = f.Forced
					if prev != f.Forced {
						// Victim change can cascade (victim may itself
						// be an aggressor).
						a.fireCoupling(vi, prev, f.Forced)
					}
				}
			case CFIN:
				if a.cellIndex(f.Aggressor) == ai && f.AggrRise == rose {
					prev := a.cells[vi]
					a.cells[vi] = !prev
					a.fireCoupling(vi, prev, !prev)
				}
			}
		}
	}
}

// readCell senses a cell honouring stuck-at, stuck-open, retention and
// state-coupling semantics. col is the physical column for the SOF
// sense-latch model.
func (a *Array) readCell(ci, col int) bool {
	v := a.cells[ci]
	for _, f := range a.faults[ci] {
		switch f.Kind {
		case SA0:
			v = false
		case SA1:
			v = true
		case SOF:
			v = a.colSense[col] // sense amp keeps previous value
		case DRF0:
			if a.tick-a.lastTouch[ci] >= RetentionTicks {
				a.cells[ci] = false
				v = false
			}
		case DRF1:
			if a.tick-a.lastTouch[ci] >= RetentionTicks {
				a.cells[ci] = true
				v = true
			}
		case CFST:
			ai := a.cellIndex(f.Aggressor)
			if a.cells[ai] == f.AggrRise {
				v = f.Forced
			}
		}
	}
	a.colSense[col] = v
	if _, ok := a.lastTouch[ci]; ok {
		a.lastTouch[ci] = a.tick
	}
	return v
}

// InjectAddressFault makes accesses to addr decode to alias instead —
// the classic AF where the decoder activates a wrong word line. Both
// addresses must be regular word addresses.
func (a *Array) InjectAddressFault(addr, alias int) error {
	if addr < 0 || addr >= a.cfg.Words || alias < 0 || alias >= a.cfg.Words {
		return cerr.New(cerr.CodeInvalidParams, "sram: address fault %d->%d out of range", addr, alias)
	}
	if addr == alias {
		return cerr.New(cerr.CodeInvalidParams, "sram: address fault must alias a different address")
	}
	if a.afMap == nil {
		a.afMap = map[int]int{}
	}
	a.afMap[addr] = alias
	return nil
}

// addrRowCol splits a word address into (row, column-select),
// honouring injected address decoder faults.
func (a *Array) addrRowCol(addr int) (int, int) {
	if a.afMap != nil {
		if alias, ok := a.afMap[addr]; ok {
			addr = alias
		}
	}
	return addr / a.cfg.BPC, addr % a.cfg.BPC
}

// Read returns the word at a regular address.
func (a *Array) Read(addr int) uint64 {
	row, cs := a.addrRowCol(addr)
	return a.readRowWord(row, cs)
}

// Write stores a word at a regular address.
func (a *Array) Write(addr int, data uint64) {
	row, cs := a.addrRowCol(addr)
	a.writeRowWord(row, cs, data)
}

// ReadSpare reads the word at column-select cs of spare row s
// (0-based).
func (a *Array) ReadSpare(s, cs int) uint64 {
	return a.readRowWord(a.cfg.Rows()+s, cs)
}

// WriteSpare writes the word at column-select cs of spare row s.
func (a *Array) WriteSpare(s, cs int, data uint64) {
	a.writeRowWord(a.cfg.Rows()+s, cs, data)
}

func (a *Array) readRowWord(row, cs int) uint64 {
	var w uint64
	for b, ci := range a.wordCells(row, cs) {
		if a.readCell(ci, b*a.cfg.BPC+cs) {
			w |= 1 << uint(b)
		}
	}
	return w
}

func (a *Array) writeRowWord(row, cs int, data uint64) {
	cells := a.wordCells(row, cs)
	// Phase 1: all bits switch together.
	olds := a.oldScratch
	news := a.newScratch
	for b, ci := range cells {
		olds[b] = a.writeCell(ci, data>>uint(b)&1 == 1)
		news[b] = a.cells[ci]
	}
	// Phase 2: aggressor transitions couple into their victims —
	// including victims inside the same word, whose freshly written
	// values they corrupt. The transition set is fixed by the write
	// itself (phase 1), not by cascaded coupling effects.
	for b, ci := range cells {
		if news[b] != olds[b] {
			a.fireCoupling(ci, olds[b], news[b])
		}
	}
}

// Wait advances the retention clock by one tick (the BIST "Delay"
// phase during which the embedded processor tristates the interface).
func (a *Array) Wait() { a.tick++ }
