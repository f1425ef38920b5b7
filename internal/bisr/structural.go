package bisr

import (
	"fmt"

	"repro/internal/logicsim"
)

// StructuralTLB is the gate-level realisation of the repair TLB: one
// register + valid bit per spare, a parallel bank of equality
// comparators on the incoming row address (the single-compare-delay
// property the paper contrasts with Chen–Sunada's sequential scheme),
// a newest-entry-wins priority encoder, and a fill counter assigning
// spares in the strictly increasing sequence. Re-storing a row simply
// writes a newer entry; the priority encoder makes it supersede the
// older one, exactly like the behavioural TLB.
type StructuralTLB struct {
	Sim *logicsim.Sim

	// Addr is the incoming row-address bus (lookup and store share
	// it, as in the hardware where the BIST address bus feeds both).
	Addr []int
	// Store, when high at a clock edge, captures Addr into the next
	// spare's entry register.
	Store int
	// RstN is the active-low reset.
	RstN int

	// Hit is high when any valid entry matches Addr.
	Hit int
	// SpareIdx is the matched spare index (newest match wins).
	SpareIdx []int
	// Full is high when every spare has been consumed.
	Full int

	spares   int
	addrBits int
}

// BuildStructuralTLB elaborates the TLB for the given spare count and
// row-address width onto the simulator. Impossible geometry (no
// spares, no address bits, or a size that would explode the one-hot
// decode) is recorded as a construction error on the simulator — check
// s.Err() after building — and the geometry is clamped so elaboration
// itself stays total.
func BuildStructuralTLB(s *logicsim.Sim, spares, addrBits int, prefix string) *StructuralTLB {
	const maxSpares, maxAddrBits = 4096, 32
	if spares < 1 || addrBits < 1 || spares > maxSpares || addrBits > maxAddrBits {
		s.Failf("bisr: structural TLB geometry (spares %d, addrBits %d) outside [1, %d]x[1, %d]",
			spares, addrBits, maxSpares, maxAddrBits)
		if spares < 1 {
			spares = 1
		}
		if spares > maxSpares {
			spares = maxSpares
		}
		if addrBits < 1 {
			addrBits = 1
		}
		if addrBits > maxAddrBits {
			addrBits = maxAddrBits
		}
	}
	t := &StructuralTLB{
		Sim: s, spares: spares, addrBits: addrBits,
		Addr:  s.Bus(prefix+".addr", addrBits),
		Store: s.Net(prefix + ".store"),
		RstN:  s.Net(prefix + ".rstN"),
	}
	// Constant rails derived from the store input and its complement:
	// zero = store AND NOT store, one = store OR NOT store.
	nstore := s.Net(prefix + ".nstore")
	s.Gate(logicsim.NOT, nstore, t.Store)
	zero := s.Net(prefix + ".zero")
	one := s.Net(prefix + ".one")
	s.Gate(logicsim.AND, zero, t.Store, nstore)
	s.Gate(logicsim.OR, one, t.Store, nstore)

	// Fill counter: counts stores, saturating at spares.
	cntBits := 1
	for 1<<uint(cntBits) < spares+1 {
		cntBits++
	}
	notFull := s.Net(prefix + ".notfull")
	doStore := s.Net(prefix + ".dostore")
	s.Gate(logicsim.AND, doStore, t.Store, notFull)
	cnt := s.UpDownCounter(prefix+".fill", cntBits, t.RstN)
	s.Gate(logicsim.BUF, cnt.En, doStore)
	s.Gate(logicsim.BUF, cnt.Up, one)
	// full = (fill == spares), against the capacity literal.
	sparesBits := make([]int, cntBits)
	for b := 0; b < cntBits; b++ {
		sparesBits[b] = s.Net(fmt.Sprintf("%s.cap%d", prefix, b))
		if spares>>uint(b)&1 == 1 {
			s.Gate(logicsim.BUF, sparesBits[b], one)
		} else {
			s.Gate(logicsim.BUF, sparesBits[b], zero)
		}
	}
	t.Full = s.EqComparator(prefix+".fullcmp", cnt.Q, sparesBits)
	s.Gate(logicsim.NOT, notFull, t.Full)

	// One-hot store-enable decode of the fill pointer.
	loadEn := s.Decoder(prefix+".loaddec", cnt.Q, doStore)

	// Entry registers, valid bits, and match lines.
	matches := make([]int, spares)
	for e := 0; e < spares; e++ {
		en := loadEn[e]
		entry := make([]int, addrBits)
		for b := 0; b < addrBits; b++ {
			q := s.Net(fmt.Sprintf("%s.e%d_%d", prefix, e, b))
			d := s.Net(fmt.Sprintf("%s.e%d_%dd", prefix, e, b))
			s.Gate(logicsim.MUX2, d, en, q, t.Addr[b])
			s.DFF(d, q, t.RstN)
			entry[b] = q
		}
		vq := s.Net(fmt.Sprintf("%s.v%d", prefix, e))
		vd := s.Net(fmt.Sprintf("%s.v%dd", prefix, e))
		s.Gate(logicsim.OR, vd, vq, en)
		s.DFF(vd, vq, t.RstN)
		eq := s.EqComparator(fmt.Sprintf("%s.cmp%d", prefix, e), t.Addr, entry)
		matches[e] = s.Net(fmt.Sprintf("%s.m%d", prefix, e))
		s.Gate(logicsim.AND, matches[e], vq, eq)
	}
	t.Hit = s.OrReduce(prefix+".hit", matches)

	// Newest-wins priority: sel_e = match_e AND NOT(any higher match).
	sels := make([]int, spares)
	for e := 0; e < spares; e++ {
		if e == spares-1 {
			sels[e] = matches[e]
			continue
		}
		higher := s.OrReduce(fmt.Sprintf("%s.hi%d", prefix, e), matches[e+1:])
		nh := s.Net(fmt.Sprintf("%s.nhi%d", prefix, e))
		s.Gate(logicsim.NOT, nh, higher)
		sels[e] = s.Net(fmt.Sprintf("%s.sel%d", prefix, e))
		s.Gate(logicsim.AND, sels[e], matches[e], nh)
	}
	// Binary-encode the selected spare index.
	idxBits := 1
	for 1<<uint(idxBits) < spares {
		idxBits++
	}
	t.SpareIdx = make([]int, idxBits)
	for b := 0; b < idxBits; b++ {
		var srcs []int
		for e := 0; e < spares; e++ {
			if e>>uint(b)&1 == 1 {
				srcs = append(srcs, sels[e])
			}
		}
		t.SpareIdx[b] = s.Net(fmt.Sprintf("%s.idx%d", prefix, b))
		if len(srcs) == 0 {
			s.Gate(logicsim.BUF, t.SpareIdx[b], zero)
			continue
		}
		s.Gate(logicsim.OR, t.SpareIdx[b], srcs...)
	}
	return t
}
