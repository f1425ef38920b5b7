package leafcell

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/tech"
)

// The standard-gate library: the BIST/BISR control blocks (ADDGEN,
// DATAGEN, STREG, the TLB's priority/driver logic) are assembled from
// these cells, so their macro areas follow directly from the
// structural netlists' gate counts.

// Inv generates an inverter with drive strength scaling.
func Inv(p *tech.Process, size int) *Cell {
	if size < 1 {
		size = 1
	}
	b := newB(p, fmt.Sprintf("inv_x%d", size))
	w := widthFor(1)
	frame(b, w)
	nmos(b, "mn", 0, 3*size, "y", "a", "gnd")
	pmos(b, "mp", 0, 3*size, "y", "a", "vdd")
	gatePort(b, "a", 0, geom.West)
	drainPort(b, "y", 0, 3*size, true, geom.East)
	return sanity(b.Done())
}

// Buf generates a two-stage buffer.
func Buf(p *tech.Process, size int) *Cell {
	if size < 1 {
		size = 1
	}
	b := newB(p, fmt.Sprintf("buf_x%d", size))
	w := widthFor(2)
	frame(b, w)
	nmos(b, "mn1", 0, 3, "ab", "a", "gnd")
	pmos(b, "mp1", 0, 3, "ab", "a", "vdd")
	nmos(b, "mn2", 1, 3*size, "y", "ab", "gnd")
	pmos(b, "mp2", 1, 3*size, "y", "ab", "vdd")
	gatePort(b, "a", 0, geom.West)
	drainPort(b, "y", 1, 3*size, true, geom.East)
	return sanity(b.Done())
}

// Nand2 generates a 2-input NAND.
func Nand2(p *tech.Process) *Cell {
	b := newB(p, "nand2")
	w := widthFor(2)
	frame(b, w)
	nmos(b, "mn1", 0, 4, "y", "a", "n1")
	nmos(b, "mn2", 1, 4, "n1", "b", "gnd")
	pmos(b, "mp1", 0, 4, "y", "a", "vdd")
	pmos(b, "mp2", 1, 4, "y", "b", "vdd")
	gatePort(b, "a", 0, geom.West)
	gatePort(b, "b", 1, geom.West)
	drainPort(b, "y", 0, 4, true, geom.East)
	return sanity(b.Done())
}

// Nor2 generates a 2-input NOR.
func Nor2(p *tech.Process) *Cell {
	b := newB(p, "nor2")
	w := widthFor(2)
	frame(b, w)
	nmos(b, "mn1", 0, 3, "y", "a", "gnd")
	nmos(b, "mn2", 1, 3, "y", "b", "gnd")
	pmos(b, "mp1", 0, 6, "y", "a", "p1")
	pmos(b, "mp2", 1, 6, "p1", "b", "vdd")
	gatePort(b, "a", 0, geom.West)
	gatePort(b, "b", 1, geom.West)
	drainPort(b, "y", 0, 3, true, geom.East)
	return sanity(b.Done())
}

// Xor2 generates a 2-input XOR (complementary static realisation, six
// devices) — the comparator bit of DATAGEN and the TLB compare.
func Xor2(p *tech.Process) *Cell {
	b := newB(p, "xor2")
	w := widthFor(3)
	frame(b, w)
	nmos(b, "mn1", 0, 3, "ab", "a", "gnd")
	pmos(b, "mp1", 0, 3, "ab", "a", "vdd")
	nmos(b, "mn2", 1, 4, "y", "a", "bx")
	nmos(b, "mn3", 2, 4, "bx", "ab", "gnd")
	pmos(b, "mp2", 1, 4, "y", "ab", "px")
	pmos(b, "mp3", 2, 4, "px", "a", "vdd")
	gatePort(b, "a", 0, geom.West)
	gatePort(b, "b", 1, geom.West)
	drainPort(b, "y", 1, 4, true, geom.East)
	return sanity(b.Done())
}

// Mux2 generates a 2:1 multiplexer (transmission gates plus output
// buffer).
func Mux2(p *tech.Process) *Cell {
	b := newB(p, "mux2")
	w := widthFor(3)
	frame(b, w)
	nmos(b, "mns", 0, 3, "sb", "s", "gnd")
	pmos(b, "mps", 0, 3, "sb", "s", "vdd")
	nmos(b, "mta", 1, 4, "y", "sb", "a")
	pmos(b, "mtap", 1, 4, "y", "s", "a")
	nmos(b, "mtb", 2, 4, "y", "s", "b")
	pmos(b, "mtbp", 2, 4, "y", "sb", "b")
	gatePort(b, "s", 0, geom.West)
	gatePort(b, "a", 1, geom.South)
	gatePort(b, "b", 2, geom.South)
	drainPort(b, "y", 1, 4, true, geom.East)
	return sanity(b.Done())
}

// DFF generates an edge-triggered D flip-flop with active-low reset
// (master/slave transmission-gate style, 14 devices).
func DFF(p *tech.Process) *Cell {
	b := newB(p, "dff")
	w := widthFor(7)
	frame(b, w)
	// Clock inverter.
	nmos(b, "mnc", 0, 3, "ckb", "ck", "gnd")
	pmos(b, "mpc", 0, 3, "ckb", "ck", "vdd")
	// Master latch.
	nmos(b, "mtm", 1, 3, "m", "ckb", "d")
	pmos(b, "mtmp", 1, 3, "m", "ck", "d")
	nmos(b, "mim1", 2, 3, "mb", "m", "gnd")
	pmos(b, "mim2", 2, 3, "mb", "m", "vdd")
	// Reset gate on the master (NAND with rstN).
	nmos(b, "mrn", 3, 3, "m", "rstb", "gnd")
	pmos(b, "mrp", 3, 3, "m", "rstn", "vdd")
	// Slave latch.
	nmos(b, "mts", 4, 3, "s", "ck", "mb")
	pmos(b, "mtsp", 4, 3, "s", "ckb", "mb")
	nmos(b, "mis1", 5, 3, "q", "s", "gnd")
	pmos(b, "mis2", 5, 3, "q", "s", "vdd")
	nmos(b, "mqb1", 6, 3, "qb", "q", "gnd")
	pmos(b, "mqb2", 6, 3, "qb", "q", "vdd")
	gatePort(b, "d", 1, geom.West)
	gatePort(b, "ck", 0, geom.South)
	gatePort(b, "rstn", 3, geom.South)
	drainPort(b, "q", 5, 3, true, geom.East)
	return sanity(b.Done())
}

// Tribuf generates a tristate buffer — the output selector of the
// synchronous TLB-masking scheme (the TLB and the address register
// drive the decoders through suitably sized tristate buffers).
func Tribuf(p *tech.Process, size int) *Cell {
	if size < 1 {
		size = 1
	}
	b := newB(p, fmt.Sprintf("tribuf_x%d", size))
	w := widthFor(2)
	frame(b, w)
	nmos(b, "mn1", 0, 3*size, "yn", "a", "gnd")
	nmos(b, "mn2", 1, 3*size, "y", "en", "yn")
	pmos(b, "mp1", 0, 3*size, "yp", "a", "vdd")
	pmos(b, "mp2", 1, 3*size, "y", "enb", "yp")
	gatePort(b, "a", 0, geom.West)
	gatePort(b, "en", 1, geom.South)
	drainPort(b, "y", 1, 3*size, true, geom.East)
	return sanity(b.Done())
}

// Library is the complete leaf-cell set built for one process and
// buffer size, the first stage of BISRAMGEN's bottom-up flow.
type Library struct {
	P       *tech.Process
	BufSize int

	SRAM      *Cell
	Precharge *Cell
	SenseAmp  *Cell
	WriteDrv  *Cell
	ColMux    *Cell
	CAM       *Cell
	PLAOn     *Cell
	PLAOff    *Cell
	PLAPull   *Cell
	Inv       *Cell
	Buf       *Cell
	Nand2     *Cell
	Nor2      *Cell
	Xor2      *Cell
	Mux2      *Cell
	DFF       *Cell
	Tribuf    *Cell

	fp Fingerprint // stamped by Shared
}

// NewLibrary builds every leaf cell for the process.
func NewLibrary(p *tech.Process, bufSize int) (*Library, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if bufSize < 1 || bufSize > 4 {
		return nil, fmt.Errorf("leafcell: buffer size %d out of range 1..4", bufSize)
	}
	return &Library{
		P: p, BufSize: bufSize,
		SRAM:      SRAM6T(p),
		Precharge: Precharge(p, bufSize),
		SenseAmp:  SenseAmp(p),
		WriteDrv:  WriteDriver(p),
		ColMux:    ColMux(p),
		CAM:       CAMCell(p),
		PLAOn:     PLACrosspoint(p, true),
		PLAOff:    PLACrosspoint(p, false),
		PLAPull:   PLAPullup(p),
		Inv:       Inv(p, bufSize),
		Buf:       Buf(p, bufSize),
		Nand2:     Nand2(p),
		Nor2:      Nor2(p),
		Xor2:      Xor2(p),
		Mux2:      Mux2(p),
		DFF:       DFF(p),
		Tribuf:    Tribuf(p, bufSize),
	}, nil
}

// All returns every cell for iteration in tests.
func (l *Library) All() []*Cell {
	return []*Cell{l.SRAM, l.Precharge, l.SenseAmp, l.WriteDrv, l.ColMux,
		l.CAM, l.PLAOn, l.PLAOff, l.PLAPull, l.Inv, l.Buf, l.Nand2,
		l.Nor2, l.Xor2, l.Mux2, l.DFF, l.Tribuf}
}

// RowDecoder builds (and caches nothing: cheap) a decoder slice for
// the given address width.
func (l *Library) RowDecoder(addrBits int) *Cell {
	return RowDecoderUnit(l.P, addrBits, l.BufSize)
}
