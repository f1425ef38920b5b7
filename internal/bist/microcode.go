package bist

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/cerr"
	"repro/internal/march"
)

// Plane parse limits. Plane files are user inputs ("loaded from
// AND/OR plane files at runtime"); the caps bound adversarial files
// without excluding any program the assembler can produce.
const (
	maxStateBits    = 32      // NumStates <= 2^32 is already absurd
	maxPlaneRows    = 1 << 16 // product terms
	maxPlaneLineLen = 4096    // bytes per plane row
)

// Control signal output positions of the TRPLA's OR plane. The next-
// state bits follow these in the output vector.
const (
	SigRead     = iota // perform a read this cycle
	SigWrite           // perform a write this cycle
	SigInvert          // use the complemented background for the op
	SigCompare         // compare read data against the expectation
	SigAddrStep        // advance ADDGEN after the op
	SigAddrUp          // ADDGEN direction for this element (1 = up)
	SigAddrLoad        // load ADDGEN to the element's start address
	SigDataStep        // advance DATAGEN to the next background
	SigDataLoad        // reset DATAGEN to the first background
	SigDelay           // request the data-retention wait (processor handshake)
	SigCapture         // pass-1 read failed: store the faulty row in the TLB
	SigSetPass         // end of pass 1: raise the pass-2 flag in STREG
	SigDone            // self-test/repair sequence complete
	SigUnsucc          // pass-2 read failed: Repair Unsuccessful
	NumSigs
)

// Condition input positions, appended after the state bits in the
// PLA's input vector.
const (
	CondTC     = iota // ADDGEN terminal count
	CondBGDone        // DATAGEN on last background
	CondErr           // comparator mismatch (Mealy input)
	CondPass2         // STREG pass-2 flag
	NumConds
)

// Term is one product term: a ternary match over the input vector
// (state bits then condition bits) and the set of outputs it asserts
// (control signals then next-state bits).
type Term struct {
	// Mask and Val encode the AND-plane row: input i participates when
	// Mask has bit i set, and must then equal the corresponding Val
	// bit. Unmasked inputs are don't-cares.
	Mask, Val uint64
	// Out is the OR-plane row over NumSigs + state-bit outputs.
	Out uint64
}

// Program is a complete TRPLA control program.
type Program struct {
	Name      string
	StateBits int
	NumStates int
	Terms     []Term
}

// numInputs returns the AND-plane input width.
func (p *Program) numInputs() int { return p.StateBits + NumConds }

// numOutputs returns the OR-plane output width.
func (p *Program) numOutputs() int { return NumSigs + p.StateBits }

// Eval evaluates the PLA: given the current state and condition bits,
// it ORs the outputs of all matching product terms and returns the
// control-signal bitset and the next state.
func (p *Program) Eval(state int, conds uint64) (sigs uint64, next int) {
	in := uint64(state) | conds<<uint(p.StateBits)
	var out uint64
	for _, t := range p.Terms {
		if in&t.Mask == t.Val {
			out |= t.Out
		}
	}
	sigs = out & (1<<NumSigs - 1)
	next = int(out >> NumSigs)
	return sigs, next
}

// stateBitsFor returns the number of flip-flops needed for n states.
func stateBitsFor(n int) int {
	b := 1
	for 1<<uint(b) < n {
		b++
	}
	return b
}

// Assemble compiles a march test into a TRPLA control program. The
// resulting state machine runs the whole test once per background,
// then — via the pass-2 flag — repeats the entire sequence a second
// time for the test-and-repair flow: pass-1 read failures assert
// capture, pass-2 failures assert unsucc, exactly as the paper's
// combined test and repair controller does.
func Assemble(t march.Test) (*Program, error) {
	if len(t.Elements) == 0 {
		return nil, cerr.New(cerr.CodeMarchParse, "bist: empty march test")
	}
	type opRef struct{ elem, op int }
	// State layout:
	//  0            INIT   (dataload, addrload for element 0)
	//  elemInit[i]  per-element init (addrload, optional delay)
	//  opState[i][j] one state per op
	//  bgState      background step / pass management
	//  doneState    terminal
	// Element 0's init is merged into INIT.
	nStates := 1 // INIT
	elemInit := make([]int, len(t.Elements))
	opState := make([][]int, len(t.Elements))
	for i, e := range t.Elements {
		if len(e.Ops) == 0 {
			return nil, cerr.New(cerr.CodeMarchParse, "bist: element %d has no ops", i)
		}
		if i == 0 {
			elemInit[i] = 0
		} else {
			elemInit[i] = nStates
			nStates++
		}
		opState[i] = make([]int, len(e.Ops))
		for j := range e.Ops {
			opState[i][j] = nStates
			nStates++
		}
	}
	bgState := nStates
	nStates++
	doneState := nStates
	nStates++

	p := &Program{Name: t.Name, NumStates: nStates}
	p.StateBits = stateBitsFor(nStates)
	if p.numInputs() > 64 || p.numOutputs() > 64 {
		return nil, cerr.New(cerr.CodeInvalidParams,
			"bist: program too wide (%d inputs, %d outputs; 64 max)", p.numInputs(), p.numOutputs())
	}

	sBits := uint(p.StateBits)
	stateMask := uint64(1)<<sBits - 1
	// term helpers -------------------------------------------------
	addTerm := func(state int, condMask, condVal uint64, sigs uint64, next int) {
		t := Term{
			Mask: stateMask | condMask<<sBits,
			Val:  uint64(state) | condVal<<sBits,
			Out:  sigs | uint64(next)<<NumSigs,
		}
		p.Terms = append(p.Terms, t)
	}
	bit := func(sig int) uint64 { return 1 << uint(sig) }
	condBit := func(c int) uint64 { return 1 << uint(c) }

	dirUp := func(e march.Element) bool { return e.Order != march.Descending }

	elemInitSigs := func(i int) uint64 {
		e := t.Elements[i]
		s := bit(SigAddrLoad)
		if dirUp(e) {
			s |= bit(SigAddrUp)
		}
		if e.Delay {
			s |= bit(SigDelay)
		}
		return s
	}

	// INIT: reset DATAGEN and set up element 0.
	addTerm(0, 0, 0, bit(SigDataLoad)|elemInitSigs(0), opState[0][0])

	for i, e := range t.Elements {
		if i > 0 {
			addTerm(elemInit[i], 0, 0, elemInitSigs(i), opState[i][0])
		}
		up := dirUp(e)
		for j, op := range e.Ops {
			var sigs uint64
			if op.Kind == march.Write {
				sigs |= bit(SigWrite)
			} else {
				sigs |= bit(SigRead) | bit(SigCompare)
			}
			if op.Inverted {
				sigs |= bit(SigInvert)
			}
			if up {
				sigs |= bit(SigAddrUp)
			}
			st := opState[i][j]
			last := j == len(e.Ops)-1
			if !last {
				addTerm(st, 0, 0, sigs, opState[i][j+1])
			} else {
				// Advance address; at terminal count fall through to
				// the next element (or background step). The datapath
				// signals go in a tc-independent term and only the
				// next-state bits are tc-qualified: in the structural
				// PLA the terminal count is itself a function of the
				// datapath outputs (counter direction), and asserting
				// the same signal from two tc-qualified terms would
				// glitch on every tc transition — a combinational
				// oscillator. Keeping control outputs free of tc
				// breaks that loop; the OR-plane semantics are
				// unchanged.
				sigs |= bit(SigAddrStep)
				nextElem := bgState
				if i+1 < len(t.Elements) {
					nextElem = elemInit[i+1]
				}
				addTerm(st, 0, 0, sigs, 0)
				addTerm(st, condBit(CondTC), 0, 0, opState[i][0])
				addTerm(st, condBit(CondTC), condBit(CondTC), 0, nextElem)
			}
			if op.Kind == march.Read {
				// Mealy capture/unsuccessful terms, qualified by err
				// and the pass flag. They assert no next-state bits, so
				// composing them with the op term is safe.
				addTerm(st, condBit(CondErr)|condBit(CondPass2), condBit(CondErr), bit(SigCapture), 0)
				addTerm(st, condBit(CondErr)|condBit(CondPass2), condBit(CondErr)|condBit(CondPass2), bit(SigUnsucc), 0)
			}
		}
	}
	// Background management.
	addTerm(bgState, condBit(CondBGDone), 0, bit(SigDataStep)|elemInitSigs(0), opState[0][0])
	addTerm(bgState, condBit(CondBGDone)|condBit(CondPass2), condBit(CondBGDone),
		bit(SigSetPass)|bit(SigDataLoad)|elemInitSigs(0), opState[0][0])
	addTerm(bgState, condBit(CondBGDone)|condBit(CondPass2), condBit(CondBGDone)|condBit(CondPass2),
		bit(SigDone), doneState)
	// DONE self-loop.
	addTerm(doneState, 0, 0, bit(SigDone), doneState)
	return p, nil
}

// --- plane file serialisation -----------------------------------

// WritePlanes renders the program as the two text plane files the
// paper says BISRAMGEN reads at runtime: each AND-plane line has one
// character per input (1, 0, or - for don't-care); each OR-plane line
// has one character per output (1 or 0, or - treated as 0).
func (p *Program) WritePlanes(andPlane, orPlane io.Writer) error {
	for _, t := range p.Terms {
		var row strings.Builder
		for i := 0; i < p.numInputs(); i++ {
			b := uint64(1) << uint(i)
			switch {
			case t.Mask&b == 0:
				row.WriteByte('-')
			case t.Val&b != 0:
				row.WriteByte('1')
			default:
				row.WriteByte('0')
			}
		}
		if _, err := fmt.Fprintln(andPlane, row.String()); err != nil {
			return err
		}
		row.Reset()
		for o := 0; o < p.numOutputs(); o++ {
			if t.Out&(1<<uint(o)) != 0 {
				row.WriteByte('1')
			} else {
				row.WriteByte('0')
			}
		}
		if _, err := fmt.Fprintln(orPlane, row.String()); err != nil {
			return err
		}
	}
	return nil
}

// ReadPlanes parses a pair of plane files into a Program. The caller
// supplies the state-bit count (the plane geometry fixes everything
// else). Blank lines and lines starting with '#' are ignored.
//
// Plane files are user-controllable input; every failure — geometry
// mismatch, bad characters, oversized files, out-of-range state-bit
// counts — is a typed cerr.ErrPlaneParse, and parsing never panics
// (see FuzzPLAPlanes and the faultcampaign suite).
func ReadPlanes(name string, stateBits int, andPlane, orPlane io.Reader) (*Program, error) {
	if stateBits < 1 || stateBits > maxStateBits {
		return nil, cerr.New(cerr.CodePlaneParse,
			"bist: state bits %d outside [1, %d]", stateBits, maxStateBits)
	}
	andRows, err := planeRows(andPlane)
	if err != nil {
		return nil, cerr.Wrap(cerr.CodePlaneParse, err, "bist: AND plane")
	}
	orRows, err := planeRows(orPlane)
	if err != nil {
		return nil, cerr.Wrap(cerr.CodePlaneParse, err, "bist: OR plane")
	}
	if len(andRows) != len(orRows) {
		return nil, cerr.New(cerr.CodePlaneParse,
			"bist: plane row mismatch: %d AND vs %d OR", len(andRows), len(orRows))
	}
	if len(andRows) == 0 {
		return nil, cerr.New(cerr.CodePlaneParse, "bist: empty planes")
	}
	p := &Program{Name: name, StateBits: stateBits}
	nin, nout := p.numInputs(), p.numOutputs()
	maxState := 0
	for r := range andRows {
		if len(andRows[r]) != nin {
			return nil, cerr.New(cerr.CodePlaneParse,
				"bist: AND row %d has %d columns, want %d", r, len(andRows[r]), nin)
		}
		if len(orRows[r]) != nout {
			return nil, cerr.New(cerr.CodePlaneParse,
				"bist: OR row %d has %d columns, want %d", r, len(orRows[r]), nout)
		}
		var t Term
		for i, ch := range andRows[r] {
			switch ch {
			case '-':
			case '1':
				t.Mask |= 1 << uint(i)
				t.Val |= 1 << uint(i)
			case '0':
				t.Mask |= 1 << uint(i)
			default:
				return nil, cerr.New(cerr.CodePlaneParse, "bist: AND row %d: bad char %q", r, ch)
			}
		}
		for o, ch := range orRows[r] {
			switch ch {
			case '1':
				t.Out |= 1 << uint(o)
			case '0', '-':
			default:
				return nil, cerr.New(cerr.CodePlaneParse, "bist: OR row %d: bad char %q", r, ch)
			}
		}
		if ns := int(t.Out >> NumSigs); ns > maxState {
			maxState = ns
		}
		p.Terms = append(p.Terms, t)
	}
	if maxState >= 1<<uint(stateBits) {
		return nil, cerr.New(cerr.CodePlaneParse,
			"bist: OR plane encodes state %d, beyond %d state bits", maxState, stateBits)
	}
	p.NumStates = maxState + 1
	return p, nil
}

func planeRows(r io.Reader) ([]string, error) {
	var rows []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024), maxPlaneLineLen)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if len(rows) >= maxPlaneRows {
			return nil, cerr.New(cerr.CodePlaneParse, "plane exceeds %d rows", maxPlaneRows)
		}
		rows = append(rows, line)
	}
	return rows, sc.Err()
}
