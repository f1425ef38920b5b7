package compiler

import (
	"math"
	"strconv"

	"repro/internal/geom"
	"repro/internal/leafcell"
	"repro/internal/logicsim"
	"repro/internal/tech"
)

// This file builds the macrocells. Array-like macros (RAM array,
// decoder column, periphery rows, TLB, TRPLA planes) exploit the
// paper's "structured custom design": instances align by abutment and
// no internal routing is needed. Random logic (ADDGEN, DATAGEN,
// STREG) is assembled from the standard-gate library with cell counts
// taken from the actual structural netlists.

// strapWidthL is the strap gap in lambdas inserted between subarrays
// every StrapCells columns (the user's strap-space parameter enables
// over-the-cell wiring channels).
const strapWidthL = 8

// columnX is the x offset of bit-cell column c for bit cells cellW
// wide, strap gaps included. The array places its columns there and the
// column periphery its pitch cells, so the two line up without the
// periphery reading the array.
func (p Params) columnX(c, cellW int) int {
	x := c * cellW
	if p.StrapCells > 0 {
		x += (c / p.StrapCells) * p.Process.L(strapWidthL)
	}
	return x
}

// arrayWidth is the bit-cell array's width for bit cells cellW wide.
func (p Params) arrayWidth(cellW int) int { return p.columnX(p.BPW*p.BPC-1, cellW) + cellW }

// The builders below return their macrocell and write nothing shared,
// so buildMacros may run them side by side.

// buildArray assembles the (rows+spares) x (bpw*bpc) bit-cell array
// with strap gaps.
func (d *Design) buildArray() *geom.Cell {
	p := d.Params
	cell := d.Lib.SRAM
	cw, ch := cell.Bounds().W(), cell.Bounds().H()
	cols := p.BPW * p.BPC
	// One row strip, reused for every row.
	row := geom.NewCell("array_row")
	row.Grow(cols)
	for c := 0; c < cols; c++ {
		row.Place("c"+strconv.Itoa(c), cell.Cell, geom.R0, geom.Point{X: p.columnX(c, cw)})
	}
	x := p.arrayWidth(cw)
	row.Abut = geom.R(0, 0, x, ch)

	arr := geom.NewCell("array")
	total := p.Rows() + p.Spares
	arr.Grow(total)
	for r := 0; r < total; r++ {
		name := "r" + strconv.Itoa(r)
		if r >= p.Rows() {
			name = "spare" + strconv.Itoa(r-p.Rows())
		}
		// Alternate rows are mirrored about x so that abutting rows
		// share their vdd/gnd rails, as in any real bit-cell array
		// (and so the flattened array is spacing-clean: touching
		// rails carry the same net).
		if r%2 == 0 {
			arr.Place(name, row, geom.R0, geom.Point{Y: r * ch})
		} else {
			arr.Place(name, row, geom.MX, geom.Point{Y: (r + 1) * ch})
		}
	}
	arr.Abut = geom.R(0, 0, x, total*ch)
	// Edge ports for the floorplanner: wordline edge (west) and
	// bitline edge (south).
	arr.AddPort("wl_edge", tech.Poly, geom.R(0, 0, p.Process.L(2), total*ch), geom.West)
	arr.AddPort("bl_edge", tech.Metal2, geom.R(0, 0, x, p.Process.L(2)), geom.South)
	return arr
}

// buildRowDecoder stacks one decoder slice per regular row.
func (d *Design) buildRowDecoder() *geom.Cell {
	p := d.Params
	unit := d.Lib.RowDecoder(p.RowAddrBits())
	uw, uh := unit.Bounds().W(), unit.Bounds().H()
	dec := geom.NewCell("rowdec")
	dec.Grow(p.Rows())
	for r := 0; r < p.Rows(); r++ {
		dec.Place("u"+strconv.Itoa(r), unit.Cell, geom.R0, geom.Point{Y: r * uh})
	}
	h := p.Rows() * uh
	dec.Abut = geom.R(0, 0, uw, h)
	dec.AddPort("wl_edge", tech.Poly, geom.R(uw-p.Process.L(2), 0, uw, h), geom.East)
	dec.AddPort("abus", tech.Metal2, geom.R(0, 0, uw, p.Process.L(2)), geom.South)
	return dec
}

// buildColPeriphery stacks the precharge row, column-mux row, and the
// sense-amp/write-driver row under the array, plus the column
// decoder.
func (d *Design) buildColPeriphery() *geom.Cell {
	p := d.Params
	cw := d.Lib.SRAM.Bounds().W()
	cols := p.BPW * p.BPC
	per := geom.NewCell("colper")
	per.Grow(2*cols + 2*(cols/p.BPC) + p.ColAddrBits() + 2*p.BPC)
	y := 0
	rowOf := func(name string, cell *leafcell.Cell, pitchCells int) {
		n := cols / pitchCells
		for i := 0; i < n; i++ {
			per.Place(name+strconv.Itoa(i), cell.Cell, geom.R0,
				geom.Point{X: p.columnX(i*pitchCells, cw), Y: y})
		}
		y += cell.Bounds().H()
	}
	rowOf("pre", d.Lib.Precharge, 1)
	rowOf("mux", d.Lib.ColMux, 1)
	rowOf("sa", d.Lib.SenseAmp, p.BPC)
	rowOf("wd", d.Lib.WriteDrv, p.BPC)
	// Column decoder: colAddrBits inverters + bpc AND trees realised
	// as NAND2+INV chains, placed as one extra standard-cell row.
	x := 0
	for i := 0; i < p.ColAddrBits(); i++ {
		per.Place("cdi"+strconv.Itoa(i), d.Lib.Inv.Cell, geom.R0, geom.Point{X: x, Y: y})
		x += d.Lib.Inv.Bounds().W()
	}
	for i := 0; i < p.BPC; i++ {
		per.Place("cdn"+strconv.Itoa(i), d.Lib.Nand2.Cell, geom.R0, geom.Point{X: x, Y: y})
		x += d.Lib.Nand2.Bounds().W()
		per.Place("cdv"+strconv.Itoa(i), d.Lib.Inv.Cell, geom.R0, geom.Point{X: x, Y: y})
		x += d.Lib.Inv.Bounds().W()
	}
	y += d.Lib.Inv.Bounds().H()
	w := p.arrayWidth(cw)
	per.Abut = geom.R(0, 0, w, y)
	per.AddPort("bl_edge", tech.Metal2, geom.R(0, y-p.Process.L(2), w, y), geom.North)
	per.AddPort("dout", tech.Metal1, geom.R(0, 0, w, p.Process.L(2)), geom.South)
	return per
}

// stdBlock packs standard cells for a structural netlist into a
// near-square block with shared rail rows.
func (d *Design) stdBlock(name string, sim *logicsim.Sim, extraCells []*leafcell.Cell, ports []string) *geom.Cell {
	var cells []*leafcell.Cell
	add := func(c *leafcell.Cell, n int) {
		for i := 0; i < n; i++ {
			cells = append(cells, c)
		}
	}
	for _, g := range sim.Gates() {
		two := g.Inputs - 1
		if two < 1 {
			two = 1
		}
		switch g.Kind {
		case logicsim.NOT:
			add(d.Lib.Inv, 1)
		case logicsim.BUF:
			add(d.Lib.Buf, 1)
		case logicsim.NAND:
			add(d.Lib.Nand2, two)
		case logicsim.NOR:
			add(d.Lib.Nor2, two)
		case logicsim.AND:
			add(d.Lib.Nand2, two)
			add(d.Lib.Inv, 1)
		case logicsim.OR:
			add(d.Lib.Nor2, two)
			add(d.Lib.Inv, 1)
		case logicsim.XOR, logicsim.XNOR:
			add(d.Lib.Xor2, two)
		case logicsim.MUX2:
			add(d.Lib.Mux2, 1)
		case logicsim.TRIBUF:
			add(d.Lib.Tribuf, 1)
		}
	}
	add(d.Lib.DFF, sim.NumDFFs())
	cells = append(cells, extraCells...)

	total := 0
	for _, c := range cells {
		total += c.Bounds().W()
	}
	ch := d.Lib.SRAM.Bounds().H()
	rows := int(math.Max(1, math.Round(math.Sqrt(float64(total)/float64(ch)))))
	target := (total + rows - 1) / rows

	blk := geom.NewCell(name)
	blk.Grow(len(cells))
	x, y, maxW := 0, 0, 0
	for i, c := range cells {
		blk.Place("g"+strconv.Itoa(i), c.Cell, geom.R0, geom.Point{X: x, Y: y})
		x += c.Bounds().W()
		if x > maxW {
			maxW = x
		}
		if x >= target && i < len(cells)-1 {
			x = 0
			y += ch
		}
	}
	if x > 0 || y == 0 {
		y += ch
	}
	blk.Abut = geom.R(0, 0, maxW, y)
	for _, port := range ports {
		blk.AddPort(port, tech.Metal2, geom.R(0, 0, maxW, d.Params.Process.L(2)), geom.South)
	}
	return blk
}

// buildDataGen realises the Johnson-counter background generator and
// the XOR/OR read comparator from their structural netlists.
func (d *Design) buildDataGen() *geom.Cell {
	p := d.Params
	s := logicsim.New()
	rstN := s.Net("rstN")
	s.JohnsonCounter("jc", p.BPW, rstN)
	read := s.Bus("read", p.BPW)
	exp := s.Bus("exp", p.BPW)
	diffs := make([]int, p.BPW)
	for i := range diffs {
		diffs[i] = s.Net("d" + strconv.Itoa(i))
		s.Gate(logicsim.XOR, diffs[i], read[i], exp[i])
	}
	s.OrReduce("err", diffs)
	return d.stdBlock("datagen", s, nil, []string{"dcmp"})
}

// buildAddGen realises the binary up/down address counter.
func (d *Design) buildAddGen() *geom.Cell {
	p := d.Params
	s := logicsim.New()
	rstN := s.Net("rstN")
	s.UpDownCounter("ag", p.RowAddrBits()+p.ColAddrBits(), rstN)
	return d.stdBlock("addgen", s, nil, []string{"abus"})
}

// buildStReg realises the state register: the TRPLA state flip-flops
// plus the pass-2 and status flags.
func (d *Design) buildStReg() *geom.Cell {
	s := logicsim.New()
	rstN := s.Net("rstN")
	n := d.Prog.StateBits + 3 // state + pass2 + done + unsucc
	for i := 0; i < n; i++ {
		dn := s.Net("d" + strconv.Itoa(i))
		qn := s.Net("q" + strconv.Itoa(i))
		s.DFF(dn, qn, rstN)
		// Set/hold gating per flag bit.
		s.Gate(logicsim.OR, dn, qn, s.Net("set"+strconv.Itoa(i)))
	}
	return d.stdBlock("streg", s, nil, []string{"ctl"})
}

// buildTRPLA lays out the pseudo-NMOS NOR-NOR PLA from the assembled
// control program: one crosspoint per (term, literal) in the AND
// plane and per (term, output) in the OR plane, with pull-up columns
// and input buffers.
func (d *Design) buildTRPLA() *geom.Cell {
	prog := d.Prog
	on, off, pull := d.Lib.PLAOn, d.Lib.PLAOff, d.Lib.PLAPull
	pitch := on.Bounds().W()
	nIn := prog.StateBits + 4      // state bits + 4 conditions
	nOut := len(prog.Terms)        // rows
	outCols := prog.StateBits + 14 // next-state + control signals (NumSigs)

	blk := geom.NewCell("trpla")
	blk.Grow(len(prog.Terms)*(2*nIn+outCols+1) + 2*nIn)
	y := 0
	for t, term := range prog.Terms {
		row := strconv.Itoa(t)
		x := 0
		// AND plane: two columns (true, complement) per input.
		for i := 0; i < nIn; i++ {
			b := uint64(1) << uint(i)
			cellT, cellF := off, off
			if term.Mask&b != 0 {
				if term.Val&b != 0 {
					cellT = on
				} else {
					cellF = on
				}
			}
			lit := "a" + row + "_" + strconv.Itoa(i)
			blk.Place(lit+"t", cellT.Cell, geom.R0, geom.Point{X: x, Y: y})
			x += pitch
			blk.Place(lit+"f", cellF.Cell, geom.R0, geom.Point{X: x, Y: y})
			x += pitch
		}
		// OR plane.
		for o := 0; o < outCols; o++ {
			c := off
			if term.Out&(1<<uint(o)) != 0 {
				c = on
			}
			blk.Place("o"+row+"_"+strconv.Itoa(o), c.Cell, geom.R0, geom.Point{X: x, Y: y})
			x += pitch
		}
		// Row pull-up.
		blk.Place("pu"+row, pull.Cell, geom.R0, geom.Point{X: x, Y: y})
		y += on.Bounds().H()
	}
	// Input buffer row: two inverters per input (true/complement
	// rails).
	x := 0
	for i := 0; i < 2*nIn; i++ {
		blk.Place("ib"+strconv.Itoa(i), d.Lib.Inv.Cell, geom.R0, geom.Point{X: x, Y: y})
		x += d.Lib.Inv.Bounds().W()
	}
	_ = nOut
	w := (2*nIn+outCols)*pitch + pull.Bounds().W()
	if x > w {
		w = x
	}
	blk.Abut = geom.R(0, 0, w, y+d.Lib.Inv.Bounds().H())
	blk.AddPort("ctl", tech.Metal2, geom.R(0, 0, w, d.Params.Process.L(2)), geom.South)
	return blk
}

// buildTLB lays out the repair TLB: one CAM row per spare (row-address
// CAM bits + match buffer + spare wordline driver), the address
// tristate drivers, and the store priority logic.
func (d *Design) buildTLB() *geom.Cell {
	p := d.Params
	cam := d.Lib.CAM
	cw, ch := cam.Bounds().W(), cam.Bounds().H()
	bits := p.RowAddrBits()
	blk := geom.NewCell("tlb")
	blk.Grow(p.Spares*(bits+2) + bits)
	y := 0
	for s := 0; s < p.Spares; s++ {
		spare := strconv.Itoa(s)
		x := 0
		for b := 0; b < bits; b++ {
			blk.Place("cam"+spare+"_"+strconv.Itoa(b), cam.Cell, geom.R0, geom.Point{X: x, Y: y})
			x += cw
		}
		// Match-line sense inverter and the spare wordline driver.
		blk.Place("mlbuf"+spare, d.Lib.Inv.Cell, geom.R0, geom.Point{X: x, Y: y})
		x += d.Lib.Inv.Bounds().W()
		blk.Place("wldrv"+spare, d.Lib.Buf.Cell, geom.R0, geom.Point{X: x, Y: y})
		y += ch
	}
	// Address output tristates (TLB vs address register selection per
	// Section VI's synchronous masking scheme).
	x := 0
	for b := 0; b < bits; b++ {
		blk.Place("tb"+strconv.Itoa(b), d.Lib.Tribuf.Cell, geom.R0, geom.Point{X: x, Y: y})
		x += d.Lib.Tribuf.Bounds().W()
	}
	y += d.Lib.Tribuf.Bounds().H()
	w := bits*cw + d.Lib.Inv.Bounds().W() + d.Lib.Buf.Bounds().W()
	if x > w {
		w = x
	}
	blk.Abut = geom.R(0, 0, w, y)
	blk.AddPort("spare_wl", tech.Poly, geom.R(w-p.Process.L(2), 0, w, y), geom.East)
	blk.AddPort("abus", tech.Metal2, geom.R(0, 0, w, p.Process.L(2)), geom.South)
	return blk
}
