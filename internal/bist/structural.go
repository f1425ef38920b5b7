package bist

import (
	"fmt"

	"repro/internal/logicsim"
)

// StructuralPLA is the gate-level realisation of a TRPLA program:
// the state register (STREG flip-flops plus the pass-2 flag) and the
// two PLA planes. In silicon the planes are pseudo-NMOS NOR-NOR
// arrays; the netlist here uses the logically equivalent AND-OR form
// (a NOR of complemented literals is the same product term).
type StructuralPLA struct {
	Sim *logicsim.Sim

	// Condition inputs, driven externally each cycle.
	TC, BGDone, Err int
	// RstN is the active-low reset for the state register.
	RstN int
	// Sigs are the control outputs, indexed by Sig* constants.
	Sigs []int
	// StateQ is the state register output bus (LSB first).
	StateQ []int
	// Pass2Q is the registered pass-2 flag.
	Pass2Q int
}

// BuildStructuralPLA elaborates the program into gates on the given
// simulator.
func BuildStructuralPLA(s *logicsim.Sim, p *Program, prefix string) *StructuralPLA {
	sp := &StructuralPLA{Sim: s}
	sp.TC = s.Net(prefix + ".tc")
	sp.BGDone = s.Net(prefix + ".bgdone")
	sp.Err = s.Net(prefix + ".err")
	sp.RstN = s.Net(prefix + ".rstN")

	// State register.
	sp.StateQ = s.Bus(prefix+".state", p.StateBits)

	// Pass-2 flag: set-only until reset. d = q OR setpass.
	sp.Pass2Q = s.Net(prefix + ".pass2")

	// Input literal rails: state bits then conditions, with
	// complements.
	inputs := make([]int, 0, p.numInputs())
	inputs = append(inputs, sp.StateQ...)
	inputs = append(inputs, sp.TC, sp.BGDone, sp.Err, sp.Pass2Q)
	nots := make([]int, len(inputs))
	for i, in := range inputs {
		nots[i] = s.Net(fmt.Sprintf("%s.nin%d", prefix, i))
		s.Gate(logicsim.NOT, nots[i], in)
	}

	// AND plane: one product-term gate per row.
	termNets := make([]int, len(p.Terms))
	for ti, t := range p.Terms {
		var lits []int
		for i := 0; i < p.numInputs(); i++ {
			b := uint64(1) << uint(i)
			if t.Mask&b == 0 {
				continue
			}
			if t.Val&b != 0 {
				lits = append(lits, inputs[i])
			} else {
				lits = append(lits, nots[i])
			}
		}
		termNets[ti] = s.Net(fmt.Sprintf("%s.term%d", prefix, ti))
		if len(lits) == 0 {
			// Unconditional term: tie high via NOT(x AND NOT x) style;
			// simpler: OR of a rail and its complement.
			r := s.Net(fmt.Sprintf("%s.t1_%d", prefix, ti))
			s.Gate(OR2(), r, inputs[0], nots[0])
			s.Gate(logicsim.BUF, termNets[ti], r)
			continue
		}
		s.Gate(logicsim.AND, termNets[ti], lits...)
	}

	// OR plane: one sum gate per output column.
	outCols := p.numOutputs()
	outNets := make([]int, outCols)
	zero := s.Net(prefix + ".zero")
	s.Gate(logicsim.AND, zero, inputs[0], nots[0]) // constant 0
	for o := 0; o < outCols; o++ {
		var srcs []int
		for ti, t := range p.Terms {
			if t.Out&(1<<uint(o)) != 0 {
				srcs = append(srcs, termNets[ti])
			}
		}
		outNets[o] = s.Net(fmt.Sprintf("%s.out%d", prefix, o))
		if len(srcs) == 0 {
			s.Gate(logicsim.BUF, outNets[o], zero)
			continue
		}
		s.Gate(logicsim.OR, outNets[o], srcs...)
	}
	sp.Sigs = outNets[:NumSigs]

	// Next-state feedback into the state register.
	for b := 0; b < p.StateBits; b++ {
		s.DFF(outNets[NumSigs+b], sp.StateQ[b], sp.RstN)
	}
	// Pass-2 set-only flop.
	d := s.Net(prefix + ".pass2d")
	s.Gate(logicsim.OR, d, sp.Pass2Q, outNets[SigSetPass])
	s.DFF(d, sp.Pass2Q, sp.RstN)
	return sp
}

// OR2 returns the OR kind (helper to keep the constant-one idiom
// readable above).
func OR2() logicsim.Kind { return logicsim.OR }
