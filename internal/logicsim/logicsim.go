// Package logicsim is an event-driven four-value (0/1/X/Z) gate-level
// logic simulator. BISRAMGEN uses it to simulate the structural
// netlists of the BIST/BISR blocks (ADDGEN, DATAGEN, TRPLA, STREG,
// TLB) cycle by cycle and to check them against the behavioural
// models.
package logicsim

import (
	"strconv"

	"repro/internal/cerr"
)

// Value is a four-state logic level.
type Value uint8

// Logic levels.
const (
	L0 Value = iota
	L1
	X // unknown
	Z // high impedance
)

func (v Value) String() string {
	switch v {
	case L0:
		return "0"
	case L1:
		return "1"
	case X:
		return "X"
	default:
		return "Z"
	}
}

// Bool converts a Go bool to a Value.
func Bool(b bool) Value {
	if b {
		return L1
	}
	return L0
}

// IsKnown reports whether v is a driven binary level.
func (v Value) IsKnown() bool { return v == L0 || v == L1 }

// Not returns the 4-value complement.
func Not(v Value) Value {
	switch v {
	case L0:
		return L1
	case L1:
		return L0
	default:
		return X
	}
}

func and2(a, b Value) Value {
	if a == L0 || b == L0 {
		return L0
	}
	if a == L1 && b == L1 {
		return L1
	}
	return X
}

func or2(a, b Value) Value {
	if a == L1 || b == L1 {
		return L1
	}
	if a == L0 && b == L0 {
		return L0
	}
	return X
}

func xor2(a, b Value) Value {
	if !a.IsKnown() || !b.IsKnown() {
		return X
	}
	if a == b {
		return L0
	}
	return L1
}

// Kind enumerates gate types.
type Kind int

// Gate kinds. AND/OR/NAND/NOR/XOR/XNOR accept any number of inputs
// >= 1; NOT and BUF take one; MUX2 takes (sel, a, b) and outputs a
// when sel=0, b when sel=1; TRIBUF takes (en, a) and outputs a when
// en=1, Z otherwise.
const (
	AND Kind = iota
	OR
	NAND
	NOR
	XOR
	XNOR
	NOT
	BUF
	MUX2
	TRIBUF
)

func (k Kind) String() string {
	return [...]string{"AND", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT", "BUF", "MUX2", "TRIBUF"}[k]
}

type gate struct {
	kind  Kind
	out   int
	in    []int
	delay uint64
}

func (g *gate) eval(v []Value) Value {
	switch g.kind {
	case NOT:
		return Not(res(v[g.in[0]]))
	case BUF:
		return buf(res(v[g.in[0]]))
	case MUX2:
		sel := res(v[g.in[0]])
		a, b := res(v[g.in[1]]), res(v[g.in[2]])
		switch sel {
		case L0:
			return buf(a)
		case L1:
			return buf(b)
		default:
			if a == b && a.IsKnown() {
				return a
			}
			return X
		}
	case TRIBUF:
		en := res(v[g.in[0]])
		switch en {
		case L1:
			return buf(res(v[g.in[1]]))
		case L0:
			return Z
		default:
			return X
		}
	}
	acc := res(v[g.in[0]])
	acc = buf(acc)
	for _, i := range g.in[1:] {
		b := buf(res(v[i]))
		switch g.kind {
		case AND, NAND:
			acc = and2(acc, b)
		case OR, NOR:
			acc = or2(acc, b)
		case XOR, XNOR:
			acc = xor2(acc, b)
		}
	}
	switch g.kind {
	case NAND, NOR, XNOR:
		acc = Not(acc)
	}
	return acc
}

// res resolves a wire value as seen by a gate input: Z reads as X
// (floating input).
func res(v Value) Value {
	if v == Z {
		return X
	}
	return v
}

// buf normalises a value driven onto a wire.
func buf(v Value) Value {
	if v == Z {
		return X
	}
	return v
}

// dff is an edge-triggered flip-flop updated by Sim.ClockEdge.
type dff struct {
	d, q  int
	rstN  int // async active-low reset net, -1 if none
	state Value
}

type event struct {
	t   uint64
	seq uint64
	net int
	val Value
}

// eventQueue is a binary min-heap ordered by (t, seq). It is
// hand-rolled rather than built on container/heap: the interface{}
// boxing in heap.Push/Pop costs one allocation per scheduled event,
// and a gate-level BIST run schedules millions. The backing array is
// retained across Settle calls, so a warmed-up simulator posts events
// allocation-free.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	e := h[0]
	h[0] = h[n]
	h = h[:n]
	*q = h
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return e
}

// Sim is a gate-level simulator instance.
type Sim struct {
	netIdx map[string]int
	names  []string
	values []Value
	gates  []gate
	fanout [][]int // net -> gate indices
	dffs   []dff

	now   uint64
	seq   uint64
	queue eventQueue

	// inSlab is the arena the per-gate input slices are carved from,
	// and dffNext the ClockEdge sampling scratch: both keep steady-state
	// simulation off the allocator.
	inSlab  []int
	dffNext []Value

	// defaults are construction-time levels recorded by SetDefault.
	// They belong to the netlist, not to a particular run, so Reset
	// re-arms them.
	defaults []event

	// Watch callbacks fire on committed value changes.
	watch map[int][]func(Value)

	evals uint64 // statistics: gate evaluations

	// err is the sticky first construction error. Netlist builders are
	// fluent (no per-call error returns); a malformed construction —
	// empty reduction, bus width mismatch, gate with no inputs —
	// records a typed cerr.ErrNetlist here instead of panicking, and
	// every subsequent Settle/ClockEdge refuses to run until the
	// netlist is rebuilt. Check Err after building.
	err error
}

// New returns an empty simulator.
func New() *Sim {
	return &Sim{netIdx: map[string]int{}, watch: map[int][]func(Value){}}
}

// Net interns a net name, returning its index. New nets start at X.
func (s *Sim) Net(name string) int {
	if i, ok := s.netIdx[name]; ok {
		return i
	}
	i := len(s.values)
	s.netIdx[name] = i
	s.names = append(s.names, name)
	s.values = append(s.values, X)
	s.fanout = append(s.fanout, nil)
	return i
}

// Nets interns a slice of names.
func (s *Sim) Nets(names ...string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = s.Net(n)
	}
	return out
}

// Bus interns prefix[0..n) and returns indices, bit 0 first.
func (s *Sim) Bus(prefix string, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = s.Net(prefix + "[" + strconv.Itoa(i) + "]")
	}
	return out
}

// Gate adds a gate with unit delay. Inputs and output are net indices.
func (s *Sim) Gate(k Kind, out int, in ...int) {
	s.GateD(k, 1, out, in...)
}

// Failf records a netlist construction error (first one wins) as a
// typed cerr.ErrNetlist. Block generators call it instead of panicking
// on impossible geometry; the simulator then refuses to run.
func (s *Sim) Failf(format string, args ...any) {
	if s.err == nil {
		s.err = cerr.New(cerr.CodeNetlist, format, args...)
	}
}

// Err returns the first netlist construction error, or nil.
func (s *Sim) Err() error { return s.err }

// GateD adds a gate with an explicit delay in ticks (>= 1). A gate
// with no inputs is recorded as a construction error (see Failf) and
// not added.
func (s *Sim) GateD(k Kind, delay uint64, out int, in ...int) {
	if len(in) == 0 {
		s.Failf("logicsim: %v gate driving %q has no inputs", k, s.names[out])
		return
	}
	if delay == 0 {
		delay = 1
	}
	gi := len(s.gates)
	s.gates = append(s.gates, gate{kind: k, out: out, in: s.internIn(in), delay: delay})
	for _, i := range in {
		s.fanout[i] = append(s.fanout[i], gi)
	}
}

// internIn copies a gate's input list into the shared slab so netlist
// construction costs one amortised allocation per ~thousand gates
// instead of one per gate. Slices carved from a retired slab block stay
// valid — the block is simply no longer appended to.
func (s *Sim) internIn(in []int) []int {
	if cap(s.inSlab)-len(s.inSlab) < len(in) {
		n := 1024
		if len(in) > n {
			n = 2 * len(in)
		}
		s.inSlab = make([]int, 0, n)
	}
	start := len(s.inSlab)
	s.inSlab = append(s.inSlab, in...)
	return s.inSlab[start:len(s.inSlab):len(s.inSlab)]
}

// DFF adds an edge-triggered flip-flop from net d to net q with an
// optional active-low async reset net (pass -1 for none). The flop
// updates on Sim.ClockEdge.
func (s *Sim) DFF(d, q, rstN int) {
	s.dffs = append(s.dffs, dff{d: d, q: q, rstN: rstN, state: X})
}

// Value returns the current value of a net index.
func (s *Sim) Value(net int) Value { return s.values[net] }

// ValueOf returns the value of a named net.
func (s *Sim) ValueOf(name string) Value {
	i, ok := s.netIdx[name]
	if !ok {
		return X
	}
	return s.values[i]
}

// OnChange registers a callback invoked whenever the net commits a new
// value.
func (s *Sim) OnChange(net int, fn func(Value)) {
	s.watch[net] = append(s.watch[net], fn)
}

// Set schedules an external drive of a net at the current time.
func (s *Sim) Set(net int, v Value) {
	s.post(s.now, net, v)
}

// SetDefault drives a net like Set and additionally records the level
// as part of the netlist: block builders use it for default/constant
// drives (an unconnected load input held low, say) so that Reset
// restores them. A later SetDefault on the same net supersedes the
// earlier one.
func (s *Sim) SetDefault(net int, v Value) {
	for i := range s.defaults {
		if s.defaults[i].net == net {
			s.defaults[i].val = v
			s.Set(net, v)
			return
		}
	}
	s.defaults = append(s.defaults, event{net: net, val: v})
	s.Set(net, v)
}

// SetBus drives a bus (bit 0 = LSB) from an unsigned integer.
func (s *Sim) SetBus(nets []int, val uint64) {
	for i, n := range nets {
		s.Set(n, Bool(val>>(uint(i))&1 == 1))
	}
}

// ReadBus assembles an unsigned integer from a bus; the second return
// is false when any bit is not a known binary value.
func (s *Sim) ReadBus(nets []int) (uint64, bool) {
	var v uint64
	ok := true
	for i, n := range nets {
		switch s.values[n] {
		case L1:
			v |= 1 << uint(i)
		case L0:
		default:
			ok = false
		}
	}
	return v, ok
}

func (s *Sim) post(t uint64, net int, v Value) {
	s.seq++
	s.queue.push(event{t: t, seq: s.seq, net: net, val: v})
}

// Reset returns a built netlist to its power-on state — every net X,
// every flip-flop X, the event queue empty, time zero — without
// discarding the elaborated gates, nets, slabs, or watch callbacks.
// Monte-Carlo harnesses reset and re-run one netlist instead of
// re-elaborating an identical one per trial; cumulative Stats survive.
func (s *Sim) Reset() {
	for i := range s.values {
		s.values[i] = X
	}
	for i := range s.dffs {
		s.dffs[i].state = X
	}
	s.queue = s.queue[:0]
	s.now, s.seq = 0, 0
	// Re-arm the construction-time default drives; without them a
	// reset netlist would leave default-held nets (e.g. an unused
	// counter load input) at X forever.
	for _, d := range s.defaults {
		s.post(0, d.net, d.val)
	}
}

// Settle runs the event queue until quiescent or until the budget of
// events is exhausted, returning a typed cerr.ErrSimDiverged in the
// latter case (indicating oscillation, e.g. an unstable combinational
// loop). A netlist with a recorded construction error refuses to run.
func (s *Sim) Settle() error {
	if s.err != nil {
		return s.err
	}
	const budget = 4_000_000
	n := 0
	for len(s.queue) > 0 {
		ev := s.queue.pop()
		if ev.t > s.now {
			s.now = ev.t
		}
		if s.values[ev.net] == ev.val {
			continue
		}
		s.values[ev.net] = ev.val
		for _, fn := range s.watch[ev.net] {
			fn(ev.val)
		}
		for _, gi := range s.fanout[ev.net] {
			g := &s.gates[gi]
			s.evals++
			nv := g.eval(s.values)
			s.post(s.now+g.delay, g.out, nv)
		}
		n++
		if n > budget {
			return cerr.New(cerr.CodeSimDiverged,
				"logicsim: did not settle after %d events (oscillation?)", budget)
		}
	}
	return nil
}

// ClockEdge samples every flip-flop's D (and async reset), then
// updates all Q outputs simultaneously and settles the combinational
// fan-out. This gives race-free synchronous semantics.
func (s *Sim) ClockEdge() error {
	if cap(s.dffNext) < len(s.dffs) {
		s.dffNext = make([]Value, len(s.dffs))
	}
	next := s.dffNext[:len(s.dffs)]
	for i, f := range s.dffs {
		if f.rstN >= 0 && s.values[f.rstN] == L0 {
			next[i] = L0
			continue
		}
		next[i] = buf(res(s.values[f.d]))
	}
	for i := range s.dffs {
		s.dffs[i].state = next[i]
		s.post(s.now, s.dffs[i].q, next[i])
	}
	return s.Settle()
}

// ApplyResets forces every flip-flop with an asserted (L0) async reset
// to 0 immediately; call after driving reset nets and settling.
func (s *Sim) ApplyResets() error {
	for i := range s.dffs {
		f := &s.dffs[i]
		if f.rstN >= 0 && s.values[f.rstN] == L0 {
			f.state = L0
			s.post(s.now, f.q, L0)
		}
	}
	return s.Settle()
}

// Now returns the current simulation time in ticks.
func (s *Sim) Now() uint64 { return s.now }

// Stats returns cumulative gate-evaluation count.
func (s *Sim) Stats() uint64 { return s.evals }

// NumGates returns the number of gates in the netlist.
func (s *Sim) NumGates() int { return len(s.gates) }

// GateCounts returns the number of gates of each kind — the compiler
// uses the structural netlists' composition to compute the silicon
// area of the BIST blocks.
func (s *Sim) GateCounts() map[Kind]int {
	out := map[Kind]int{}
	for i := range s.gates {
		out[s.gates[i].kind]++
	}
	return out
}

// GateInfo describes one gate for area accounting.
type GateInfo struct {
	Kind   Kind
	Inputs int
}

// Gates lists every gate with its arity, so wide gates can be costed
// as trees of two-input cells.
func (s *Sim) Gates() []GateInfo {
	out := make([]GateInfo, len(s.gates))
	for i := range s.gates {
		out[i] = GateInfo{Kind: s.gates[i].kind, Inputs: len(s.gates[i].in)}
	}
	return out
}

// NumDFFs returns the number of flip-flops.
func (s *Sim) NumDFFs() int { return len(s.dffs) }

// NumNets returns the number of interned nets (diagnostics).
func (s *Sim) NumNets() int { return len(s.values) }

// NetName returns the name of a net index (diagnostics).
func (s *Sim) NetName(i int) string { return s.names[i] }
