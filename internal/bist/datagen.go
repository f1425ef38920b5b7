package bist

import "repro/internal/march"

// DataGen is the behavioural test data background generator: a
// Johnson counter providing bpw+1 distinct backgrounds for a bpw-bit
// word, plus the exclusive-OR comparator that checks read data against
// its expected value. The Johnson organisation needs less hardware
// than a log2(bpw)+1 pattern ROM at the price of more backgrounds —
// the trade the paper argues for.
type DataGen struct {
	bpw  int
	bgs  []uint64
	idx  int
	mask uint64
}

// NewDataGen returns a generator for bpw-bit words.
func NewDataGen(bpw int) *DataGen {
	mask := ^uint64(0)
	if bpw < 64 {
		mask = 1<<uint(bpw) - 1
	}
	return &DataGen{bpw: bpw, bgs: march.JohnsonBackgrounds(bpw), mask: mask}
}

// Load resets to the first (all-zero) background.
func (g *DataGen) Load() { g.idx = 0 }

// Step advances to the next background, wrapping like the hardware
// ring.
func (g *DataGen) Step() { g.idx = (g.idx + 1) % len(g.bgs) }

// Background returns the current background pattern.
func (g *DataGen) Background() uint64 { return g.bgs[g.idx] }

// Done reports whether the current background is the last one (the
// PLA's bgdone condition input).
func (g *DataGen) Done() bool { return g.idx == len(g.bgs)-1 }

// Pattern returns the write/expect data for the current background,
// complemented when inverted.
func (g *DataGen) Pattern(inverted bool) uint64 {
	if inverted {
		return ^g.bgs[g.idx] & g.mask
	}
	return g.bgs[g.idx]
}

// Compare implements the XOR-tree/OR-gate comparator: it reports a
// mismatch between the read word and the expected pattern.
func (g *DataGen) Compare(read uint64, inverted bool) bool {
	return (read^g.Pattern(inverted))&g.mask != 0
}
