package logicsim

import "strconv"

// This file provides structural building blocks used by the BIST/BISR
// netlist generators: reduction trees, decoders, and registered buses.

// OrReduce builds a balanced OR tree over in and returns the output
// net.
func (s *Sim) OrReduce(name string, in []int) int {
	return s.reduce(name, OR, in)
}

// AndReduce builds a balanced AND tree over in and returns the output
// net.
func (s *Sim) AndReduce(name string, in []int) int {
	return s.reduce(name, AND, in)
}

func (s *Sim) reduce(name string, k Kind, in []int) int {
	if len(in) == 0 {
		// Construction error: record it and return a placeholder X net
		// so callers can keep wiring; the sim refuses to run (see Err).
		s.Failf("logicsim: %v reduce %q over empty bus", k, name)
		return s.Net(name + ".r")
	}
	level := 0
	cur := in
	for len(cur) > 1 {
		var next []int
		for i := 0; i < len(cur); i += 2 {
			if i+1 == len(cur) {
				next = append(next, cur[i])
				continue
			}
			out := s.Net(name + ".r" + strconv.Itoa(level) + "_" + strconv.Itoa(i/2))
			s.Gate(k, out, cur[i], cur[i+1])
			next = append(next, out)
		}
		cur = next
		level++
	}
	if len(in) == 1 {
		out := s.Net(name + ".r")
		s.Gate(BUF, out, in[0])
		return out
	}
	return cur[0]
}

// Decoder builds an n-to-2^n one-hot decoder with an enable input and
// returns the 2^n output nets (index 0 = all-zero address).
func (s *Sim) Decoder(name string, addr []int, en int) []int {
	n := len(addr)
	size := 1 << uint(n)
	// Complement rails.
	nb := make([]int, n)
	for i, a := range addr {
		nb[i] = s.Net(name + ".nb" + strconv.Itoa(i))
		s.Gate(NOT, nb[i], a)
	}
	out := make([]int, size)
	for v := 0; v < size; v++ {
		ins := make([]int, 0, n+1)
		ins = append(ins, en)
		for i := 0; i < n; i++ {
			if v>>uint(i)&1 == 1 {
				ins = append(ins, addr[i])
			} else {
				ins = append(ins, nb[i])
			}
		}
		out[v] = s.Net(name + ".o" + strconv.Itoa(v))
		s.Gate(AND, out[v], ins...)
	}
	return out
}

// EqComparator builds a bit-wise equality comparator between buses a
// and b (same width) and returns a net that is 1 when equal.
func (s *Sim) EqComparator(name string, a, b []int) int {
	if len(a) != len(b) {
		s.Failf("logicsim: comparator %q width mismatch (%d vs %d)", name, len(a), len(b))
		return s.Net(name + ".eq")
	}
	if len(a) == 0 {
		s.Failf("logicsim: comparator %q over empty buses", name)
		return s.Net(name + ".eq")
	}
	diffs := make([]int, len(a))
	for i := range a {
		diffs[i] = s.Net(name + ".x" + strconv.Itoa(i))
		s.Gate(XOR, diffs[i], a[i], b[i])
	}
	ne := s.OrReduce(name+".ne", diffs)
	eq := s.Net(name + ".eq")
	s.Gate(NOT, eq, ne)
	return eq
}

// UpDownCounterNets holds the interface nets of a structural binary
// up/down counter built by UpDownCounter.
type UpDownCounterNets struct {
	Q     []int // count output bus
	Up    int   // 1 = count up, 0 = count down
	En    int   // count enable
	Load  int   // synchronous load to the direction's start (0 if up, max if down); wins over En
	RstN  int   // active-low async reset
	Carry int   // terminal count indicator (all ones when up, all zeros when down)
}

// UpDownCounter builds an n-bit binary up/down counter. On each
// ClockEdge with En=1 the count increments (Up=1) or decrements
// (Up=0); it wraps modulo 2^n. This is the structural form of the
// paper's ADDGEN address generator.
func (s *Sim) UpDownCounter(name string, n int, rstN int) *UpDownCounterNets {
	c := &UpDownCounterNets{
		Up:   s.Net(name + ".up"),
		En:   s.Net(name + ".en"),
		Load: s.Net(name + ".load"),
		RstN: rstN,
	}
	// Default the load input low so counters built before the load
	// feature keep working; callers wire or Set it to use it.
	s.SetDefault(c.Load, L0)
	q := s.Bus(name+".q", n)
	c.Q = q
	// For up counting, bit i toggles when all lower bits are 1; for
	// down, when all lower bits are 0. Build "all lower ones" and
	// "all lower zeros" chains.
	// Chains seeded by En so that toggle[i] = En AND (all-lower-ones or
	// all-lower-zeros): a disabled counter holds its value.
	ones := make([]int, n)  // ones[i] = En AND q[0..i-1]
	zeros := make([]int, n) // zeros[i] = En AND ~q[0..i-1]
	for i := 0; i < n; i++ {
		if i == 0 {
			ones[i] = c.En
			zeros[i] = c.En
		} else {
			ones[i] = s.Net(name + ".ones" + strconv.Itoa(i))
			s.Gate(AND, ones[i], ones[i-1], q[i-1])
			nz := s.Net(name + ".nq" + strconv.Itoa(i-1))
			s.Gate(NOT, nz, q[i-1])
			zeros[i] = s.Net(name + ".zeros" + strconv.Itoa(i))
			s.Gate(AND, zeros[i], zeros[i-1], nz)
		}
	}
	// Load value: 0 when counting up, all-ones when counting down.
	loadVal := s.Net(name + ".loadval")
	s.Gate(NOT, loadVal, c.Up)
	for i := 0; i < n; i++ {
		tog := s.Net(name + ".tog" + strconv.Itoa(i))
		s.Gate(MUX2, tog, c.Up, zeros[i], ones[i])
		d := s.Net(name + ".d" + strconv.Itoa(i))
		s.Gate(XOR, d, q[i], tog)
		dl := s.Net(name + ".dl" + strconv.Itoa(i))
		s.Gate(MUX2, dl, c.Load, d, loadVal)
		s.DFF(dl, q[i], rstN)
	}
	// Terminal count: all ones (up) / all zeros (down).
	allOnes := s.AndReduce(name+".allones", q)
	nqs := make([]int, n)
	for i := 0; i < n; i++ {
		nqs[i] = s.Net(name + ".tnq" + strconv.Itoa(i))
		s.Gate(NOT, nqs[i], q[i])
	}
	allZeros := s.AndReduce(name+".allzeros", nqs)
	c.Carry = s.Net(name + ".tc")
	s.Gate(MUX2, c.Carry, c.Up, allZeros, allOnes)
	return c
}

// JohnsonCounterNets holds the interface of a structural Johnson
// (twisted-ring) counter, the paper's DATAGEN background generator.
type JohnsonCounterNets struct {
	Q    []int
	En   int
	Load int // synchronous clear to the all-zero background; wins over En
	RstN int
}

// JohnsonCounter builds an n-bit Johnson counter: a shift register
// whose serial input is the complement of the last stage. Starting
// from all zeros it cycles through the 2n data backgrounds
// 00..0, 10..0, 110..0, …, 11..1, 011..1, …, 00..1 — exactly the
// background sequence the paper proves sufficient.
func (s *Sim) JohnsonCounter(name string, n int, rstN int) *JohnsonCounterNets {
	j := &JohnsonCounterNets{En: s.Net(name + ".en"), Load: s.Net(name + ".load"), RstN: rstN}
	s.SetDefault(j.Load, L0)
	q := s.Bus(name+".q", n)
	j.Q = q
	nlast := s.Net(name + ".nlast")
	s.Gate(NOT, nlast, q[n-1])
	nload := s.Net(name + ".nload")
	s.Gate(NOT, nload, j.Load)
	for i := 0; i < n; i++ {
		src := nlast
		if i > 0 {
			src = q[i-1]
		}
		d := s.Net(name + ".d" + strconv.Itoa(i))
		s.Gate(MUX2, d, j.En, q[i], src)
		// Synchronous clear: load forces the next state to zero.
		dl := s.Net(name + ".dl" + strconv.Itoa(i))
		s.Gate(AND, dl, d, nload)
		s.DFF(dl, q[i], rstN)
	}
	return j
}
