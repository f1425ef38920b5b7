// Package march implements word-oriented memory march tests in the
// standard notation — ⇑(r0,w1) etc. — together with the IFA-9 and
// IFA-13 algorithms the paper's BIST controller microprograms, the
// MATS+ and March C- references, data backgrounds, and failure
// logging used by the self-repair flow.
package march

import (
	"strings"
)

// DUT is the device under test: a word-addressable memory. The
// behavioural sram.Array and the BISR-wrapped RAM both implement it.
type DUT interface {
	Words() int
	Read(addr int) uint64
	Write(addr int, data uint64)
	// Wait models the data-retention delay phase (the embedded
	// processor tristating the RAM interface for ~100 ms).
	Wait()
}

// OpKind is a read or a write.
type OpKind int

// Operation kinds.
const (
	Read OpKind = iota
	Write
)

// Op is one operation within a march element. Inverted selects the
// complemented background pattern.
type Op struct {
	Kind     OpKind
	Inverted bool
}

// Order is an element's addressing order.
type Order int

// Address orders. Either means the order is irrelevant to the
// element's fault coverage; the engine runs it ascending.
const (
	Ascending Order = iota
	Descending
	Either
)

// Element is one march element: an address order and an op sequence
// applied at every address before moving on.
type Element struct {
	Order Order
	Ops   []Op
	// Delay, when set, inserts the data-retention wait *before* this
	// element runs.
	Delay bool
}

// Test is a complete march test.
type Test struct {
	Name     string
	Elements []Element
}

// String renders the test in march notation.
func (t Test) String() string {
	var b strings.Builder
	b.WriteString(t.Name + ": {")
	for i, e := range t.Elements {
		if i > 0 {
			b.WriteString("; ")
		}
		if e.Delay {
			b.WriteString("Del; ")
		}
		switch e.Order {
		case Ascending:
			b.WriteString("⇑(")
		case Descending:
			b.WriteString("⇓(")
		default:
			b.WriteString("⇕(")
		}
		for j, op := range e.Ops {
			if j > 0 {
				b.WriteByte(',')
			}
			if op.Kind == Read {
				b.WriteByte('r')
			} else {
				b.WriteByte('w')
			}
			if op.Inverted {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte(')')
	}
	b.WriteByte('}')
	return b.String()
}

// Ops returns the total operation count per address per background.
func (t Test) OpCount() int {
	n := 0
	for _, e := range t.Elements {
		n += len(e.Ops)
	}
	return n
}

func el(order Order, delay bool, ops ...Op) Element {
	return Element{Order: order, Ops: ops, Delay: delay}
}

func r(inv bool) Op { return Op{Kind: Read, Inverted: inv} }
func w(inv bool) Op { return Op{Kind: Write, Inverted: inv} }

// IFA9 is the test BISRAMGEN microprograms into the TRPLA:
// {⇑(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); Del; ⇑(r0,w1);
// Del; ⇑(r1)}. The two delays implement data-retention testing.
func IFA9() Test {
	return Test{Name: "IFA-9", Elements: []Element{
		el(Either, false, w(false)),
		el(Ascending, false, r(false), w(true)),
		el(Ascending, false, r(true), w(false)),
		el(Descending, false, r(false), w(true)),
		el(Descending, false, r(true), w(false)),
		el(Ascending, true, r(false), w(true)),
		el(Ascending, true, r(true)),
	}}
}

// IFA13 extends IFA-9 with a read-after-write in each march element,
// adding stuck-open fault coverage:
// {⇑(w0); ⇑(r0,w1,r1); ⇑(r1,w0,r0); ⇓(r0,w1,r1); ⇓(r1,w0,r0);
// Del; ⇑(r0,w1); Del; ⇑(r1)}.
func IFA13() Test {
	return Test{Name: "IFA-13", Elements: []Element{
		el(Either, false, w(false)),
		el(Ascending, false, r(false), w(true), r(true)),
		el(Ascending, false, r(true), w(false), r(false)),
		el(Descending, false, r(false), w(true), r(true)),
		el(Descending, false, r(true), w(false), r(false)),
		el(Ascending, true, r(false), w(true)),
		el(Ascending, true, r(true)),
	}}
}

// MATSPlus is the short MATS+ test {⇕(w0); ⇑(r0,w1); ⇓(r1,w0)},
// a low-coverage baseline.
func MATSPlus() Test {
	return Test{Name: "MATS+", Elements: []Element{
		el(Either, false, w(false)),
		el(Ascending, false, r(false), w(true)),
		el(Descending, false, r(true), w(false)),
	}}
}

// MarchCMinus is March C- {⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1);
// ⇓(r1,w0); ⇕(r0)}, the classic coupling-fault test without
// retention delays.
func MarchCMinus() Test {
	return Test{Name: "March C-", Elements: []Element{
		el(Either, false, w(false)),
		el(Ascending, false, r(false), w(true)),
		el(Ascending, false, r(true), w(false)),
		el(Descending, false, r(false), w(true)),
		el(Descending, false, r(true), w(false)),
		el(Either, false, r(false)),
	}}
}

// MarchX is March X {⇕(w0); ⇑(r0,w1); ⇓(r1,w0); ⇕(r0)}: adds
// address-fault coverage over MATS+ via the closing read.
func MarchX() Test {
	return Test{Name: "March X", Elements: []Element{
		el(Either, false, w(false)),
		el(Ascending, false, r(false), w(true)),
		el(Descending, false, r(true), w(false)),
		el(Either, false, r(false)),
	}}
}

// MarchY is March Y {⇕(w0); ⇑(r0,w1,r1); ⇓(r1,w0,r0); ⇕(r0)}: March X
// with read-after-write for linked transition faults.
func MarchY() Test {
	return Test{Name: "March Y", Elements: []Element{
		el(Either, false, w(false)),
		el(Ascending, false, r(false), w(true), r(true)),
		el(Descending, false, r(true), w(false), r(false)),
		el(Either, false, r(false)),
	}}
}

// MarchB is March B {⇕(w0); ⇑(r0,w1,r1,w0,r0,w1); ⇑(r1,w0,w1);
// ⇓(r1,w0,w1,w0); ⇓(r0,w1,w0)}: covers linked idempotent coupling
// faults at 17N cost.
func MarchB() Test {
	return Test{Name: "March B", Elements: []Element{
		el(Either, false, w(false)),
		el(Ascending, false, r(false), w(true), r(true), w(false), r(false), w(true)),
		el(Ascending, false, r(true), w(false), w(true)),
		el(Descending, false, r(true), w(false), w(true), w(false)),
		el(Descending, false, r(false), w(true), w(false)),
	}}
}

// AllTests returns every implemented march algorithm, for sweeps.
func AllTests() []Test {
	return []Test{MATSPlus(), MarchX(), MarchY(), MarchCMinus(), MarchB(), IFA9(), IFA13()}
}

// Failure records one miscompare.
type Failure struct {
	Addr     int
	Expected uint64
	Got      uint64
	Element  int // index of the march element
	BG       uint64
}

// Result is the outcome of a run.
type Result struct {
	Test       string
	Failures   []Failure
	Operations int64
}

// Pass reports whether the run saw no miscompares.
func (r *Result) Pass() bool { return len(r.Failures) == 0 }

// FailedAddrs returns the distinct failing word addresses in first-seen
// order.
func (r *Result) FailedAddrs() []int {
	seen := map[int]bool{}
	var out []int
	for _, f := range r.Failures {
		if !seen[f.Addr] {
			seen[f.Addr] = true
			out = append(out, f.Addr)
		}
	}
	return out
}

// JohnsonBackgrounds returns the bpw+1 distinct backgrounds the
// paper's DATAGEN Johnson counter supplies for a bpw-bit word:
// all-0, 10…0-style running fills, …, all-1. The Johnson counter's
// 2·bpw states produce bpw+1 distinct unordered background pairs
// (each pattern's complement appears in the other half-cycle).
//
// The function is total: out-of-range widths are clamped into the
// representable [1, 64] (the behavioural model packs words in uint64).
func JohnsonBackgrounds(bpw int) []uint64 {
	if bpw < 1 {
		bpw = 1
	}
	if bpw > 64 {
		bpw = 64
	}
	out := make([]uint64, 0, bpw+1)
	v := uint64(0)
	out = append(out, v)
	for i := 0; i < bpw; i++ {
		v |= 1 << uint(i)
		out = append(out, v)
	}
	return out
}

// SingleBackground is the degenerate background set (all-0 only) used
// by data generators like Chen–Sunada's that apply one pattern and its
// complement.
func SingleBackground() []uint64 { return []uint64{0} }

// Run applies the test to the DUT for every background pattern,
// comparing each read against its expectation, and keeps going after
// failures (the BIST logs them for repair).
func Run(d DUT, t Test, backgrounds []uint64, bpw int) *Result {
	res := &Result{Test: t.Name}
	mask := ^uint64(0)
	if bpw < 64 {
		mask = 1<<uint(bpw) - 1
	}
	n := d.Words()
	for _, bg := range backgrounds {
		bg &= mask
		for ei, e := range t.Elements {
			if e.Delay {
				d.Wait()
			}
			for k := 0; k < n; k++ {
				addr := k
				if e.Order == Descending {
					addr = n - 1 - k
				}
				for _, op := range e.Ops {
					data := bg
					if op.Inverted {
						data = ^bg & mask
					}
					if op.Kind == Write {
						d.Write(addr, data)
					} else {
						got := d.Read(addr) & mask
						if got != data {
							res.Failures = append(res.Failures, Failure{
								Addr: addr, Expected: data, Got: got, Element: ei, BG: bg,
							})
						}
					}
					res.Operations++
				}
			}
		}
	}
	return res
}
