package bisr

import (
	"fmt"
	"math/bits"

	"repro/internal/bist"
	"repro/internal/logicsim"
	"repro/internal/sram"
)

// GateLevel is the complete structural BIST+BISR block: the TRPLA
// (gate-level PLA with its state register), ADDGEN (binary up/down
// counter with synchronous load), DATAGEN (Johnson counter, the
// background XOR network and the XOR/OR read comparator), and the
// TLB (CAM entries, parallel compare, priority encode, fill counter)
// — all elaborated into one logic-simulator netlist. Only the RAM
// array itself stays behavioural: the harness moves data between the
// array and the netlist's data buses each cycle, exactly where the
// real macro's bitlines would sit.
type GateLevel struct {
	Sim *logicsim.Sim
	Arr *sram.Array

	pla *bist.StructuralPLA
	cnt *logicsim.UpDownCounterNets
	jc  *logicsim.JohnsonCounterNets
	tlb *StructuralTLB

	readData []int // driven by the harness with RAM read data
	pattern  []int // background xor invert: write data / expectation
	errNet   int
	rstN     int

	addrBits int
	colBits  int
	bpw      int

	// results
	Captures    int
	Pass2Errors int
	Unsucc      bool
	Cycles      int64
}

// NewGateLevel elaborates the netlist for the given array geometry
// and march program.
func NewGateLevel(arr *sram.Array, prog *bist.Program) (*GateLevel, error) {
	cfg := arr.Config()
	if cfg.Words&(cfg.Words-1) != 0 {
		return nil, fmt.Errorf("bisr: gate-level BIST needs a power-of-2 word count")
	}
	if cfg.SpareRows < 1 {
		return nil, fmt.Errorf("bisr: gate-level BIST needs spare rows")
	}
	g := &GateLevel{
		Arr:      arr,
		Sim:      logicsim.New(),
		addrBits: bits.Len(uint(cfg.Words - 1)),
		colBits:  bits.Len(uint(cfg.BPC - 1)),
		bpw:      cfg.BPW,
	}
	s := g.Sim
	g.rstN = s.Net("rstN")
	g.pla = bist.BuildStructuralPLA(s, prog, "trpla")
	s.Gate(logicsim.BUF, g.pla.RstN, g.rstN)

	// ADDGEN.
	g.cnt = s.UpDownCounter("addgen", g.addrBits, g.rstN)
	sig := func(k int) int { return g.pla.Sigs[k] }
	s.Gate(logicsim.BUF, g.cnt.En, sig(bist.SigAddrStep))
	s.Gate(logicsim.BUF, g.cnt.Up, sig(bist.SigAddrUp))
	s.Gate(logicsim.BUF, g.cnt.Load, sig(bist.SigAddrLoad))
	// tc condition: the counter's terminal-count line.
	s.Gate(logicsim.BUF, g.pla.TC, g.cnt.Carry)

	// DATAGEN: Johnson background, pattern XOR network, comparator.
	g.jc = s.JohnsonCounter("datagen", g.bpw, g.rstN)
	s.Gate(logicsim.BUF, g.jc.En, sig(bist.SigDataStep))
	s.Gate(logicsim.BUF, g.jc.Load, sig(bist.SigDataLoad))
	// bgdone: the last background is the all-ones Johnson state.
	bgdone := s.AndReduce("bgdone", g.jc.Q)
	s.Gate(logicsim.BUF, g.pla.BGDone, bgdone)

	g.pattern = s.Bus("pattern", g.bpw)
	g.readData = s.Bus("readdata", g.bpw)
	diffs := make([]int, g.bpw)
	for i := 0; i < g.bpw; i++ {
		s.Gate(logicsim.XOR, g.pattern[i], g.jc.Q[i], sig(bist.SigInvert))
		diffs[i] = s.Net(fmt.Sprintf("cmp.d%d", i))
		s.Gate(logicsim.XOR, diffs[i], g.readData[i], g.pattern[i])
	}
	g.errNet = s.OrReduce("cmp.err", diffs)
	s.Gate(logicsim.BUF, g.pla.Err, g.errNet)

	// TLB on the row part of the address, with the store strobe gated
	// by the capture signal, a miss (no double allocation for an
	// already-mapped row), and pass 1.
	rowBus := g.cnt.Q[g.colBits:]
	g.tlb = BuildStructuralTLB(s, cfg.SpareRows, len(rowBus), "tlb")
	for i, rb := range rowBus {
		s.Gate(logicsim.BUF, g.tlb.Addr[i], rb)
	}
	s.Gate(logicsim.BUF, g.tlb.RstN, g.rstN)
	nHit := s.Net("tlb.nhit")
	s.Gate(logicsim.NOT, nHit, g.tlb.Hit)
	nPass2 := s.Net("npass2")
	s.Gate(logicsim.NOT, nPass2, g.pla.Pass2Q)
	s.Gate(logicsim.AND, g.tlb.Store, sig(bist.SigCapture), nHit, nPass2)
	return g, nil
}

// reset initialises every block.
func (g *GateLevel) reset() error {
	s := g.Sim
	s.Set(g.rstN, logicsim.L0)
	s.SetBus(g.readData, 0)
	if err := s.Settle(); err != nil {
		return err
	}
	if err := s.ApplyResets(); err != nil {
		return err
	}
	s.Set(g.rstN, logicsim.L1)
	return s.Settle()
}

// ramAccess performs one RAM read or write at the counter address,
// honouring the TLB mapping when pass 2 is active (the hardware's
// address diversion path).
func (g *GateLevel) ramAccess(write bool) (uint64, error) {
	s := g.Sim
	addrU, ok := s.ReadBus(g.cnt.Q)
	if !ok {
		return 0, fmt.Errorf("bisr: address bus unknown")
	}
	addr := int(addrU)
	cs := addr & (1<<uint(g.colBits) - 1)
	mapped := false
	var spare int
	if s.Value(g.pla.Pass2Q) == logicsim.L1 && s.Value(g.tlb.Hit) == logicsim.L1 {
		idx, ok := s.ReadBus(g.tlb.SpareIdx)
		if !ok {
			return 0, fmt.Errorf("bisr: spare index unknown")
		}
		mapped, spare = true, int(idx)
	}
	if write {
		data, ok := s.ReadBus(g.pattern)
		if !ok {
			return 0, fmt.Errorf("bisr: pattern bus unknown")
		}
		if mapped {
			g.Arr.WriteSpare(spare, cs, data)
		} else {
			g.Arr.Write(addr, data)
		}
		return data, nil
	}
	var v uint64
	if mapped {
		v = g.Arr.ReadSpare(spare, cs)
	} else {
		v = g.Arr.Read(addr)
	}
	return v, nil
}

// Run executes the gate-level self-test-and-repair to completion (the
// done state) or until maxCycles.
func (g *GateLevel) Run(maxCycles int64) error {
	if err := g.reset(); err != nil {
		return err
	}
	s := g.Sim
	sigHigh := func(k int) bool { return s.Value(g.pla.Sigs[k]) == logicsim.L1 }
	for g.Cycles = 0; g.Cycles < maxCycles; g.Cycles++ {
		if err := s.Settle(); err != nil {
			return err
		}
		if sigHigh(bist.SigDelay) {
			g.Arr.Wait()
		}
		switch {
		case sigHigh(bist.SigRead):
			v, err := g.ramAccess(false)
			if err != nil {
				return err
			}
			s.SetBus(g.readData, v)
			if err := s.Settle(); err != nil {
				return err
			}
			if sigHigh(bist.SigCapture) {
				g.Captures++
			}
			if sigHigh(bist.SigUnsucc) {
				g.Pass2Errors++
				g.Unsucc = true
			}
		case sigHigh(bist.SigWrite):
			if _, err := g.ramAccess(true); err != nil {
				return err
			}
		}
		if sigHigh(bist.SigDone) {
			return nil
		}
		if err := s.ClockEdge(); err != nil {
			return err
		}
	}
	return fmt.Errorf("bisr: gate-level run did not finish in %d cycles", maxCycles)
}

// Rerun points the elaborated netlist at a fresh behavioural array of
// the same geometry, resets simulator state and result counters, and
// runs again. Monte-Carlo harnesses call this per trial instead of
// re-elaborating an identical netlist each time.
func (g *GateLevel) Rerun(arr *sram.Array, maxCycles int64) error {
	if arr.Config() != g.Arr.Config() {
		return fmt.Errorf("bisr: Rerun array geometry %+v does not match netlist %+v",
			arr.Config(), g.Arr.Config())
	}
	g.Arr = arr
	g.Sim.Reset()
	g.Captures, g.Pass2Errors, g.Unsucc, g.Cycles = 0, 0, false, 0
	return g.Run(maxCycles)
}

// Repaired reports whether the final pass was clean.
func (g *GateLevel) Repaired() bool { return !g.Unsucc }

// SparesUsed returns the number of TLB entries consumed.
func (g *GateLevel) SparesUsed() int {
	// The fill counter value is the consumed-entry count.
	v, _ := g.Sim.ReadBus(g.tlbFillBus())
	return int(v)
}

func (g *GateLevel) tlbFillBus() []int {
	// The fill counter bus nets are named tlb.fill.q[i].
	n := 1
	for 1<<uint(n) < g.Arr.Config().SpareRows+1 {
		n++
	}
	bus := make([]int, n)
	for i := range bus {
		bus[i] = g.Sim.Net(fmt.Sprintf("tlb.fill.q[%d]", i))
	}
	return bus
}

// GateCount returns the netlist size (gates, flip-flops) — reported
// alongside the paper's controller-size claims.
func (g *GateLevel) GateCount() (gates, dffs int) {
	return g.Sim.NumGates(), g.Sim.NumDFFs()
}

// WatchNets returns the nets worth recording in a waveform dump: the
// control signals, state register, address and pattern buses, the
// comparator output and the TLB status lines.
func (g *GateLevel) WatchNets() []int {
	var nets []int
	nets = append(nets, g.pla.Sigs...)
	nets = append(nets, g.pla.StateQ...)
	nets = append(nets, g.pla.Pass2Q)
	nets = append(nets, g.cnt.Q...)
	nets = append(nets, g.pattern...)
	nets = append(nets, g.errNet, g.tlb.Hit, g.tlb.Full)
	return nets
}
