package bisr

import (
	"repro/internal/sram"
)

// Mode selects how the repairable RAM treats the TLB.
type Mode int

// Access modes.
const (
	// Bypass ignores the TLB entirely: raw array access (BIST pass 1
	// of the first test-and-repair iteration).
	Bypass Mode = iota
	// Map diverts any incoming row with a valid TLB entry to its spare
	// row (normal operation and BIST pass 2).
	Map
)

// RAM is the built-in self-repairable RAM: the array plus the TLB in
// the address path. It implements march.DUT, so both the march
// interpreter and the microprogrammed BIST engine can drive it.
type RAM struct {
	Arr  *sram.Array
	TLB  *TLB
	Mode Mode
}

// NewRAM wraps an array whose config carries the spare-row count.
func NewRAM(arr *sram.Array) *RAM {
	return &RAM{Arr: arr, TLB: NewTLB(arr.Config().SpareRows)}
}

// Words returns the addressable word count (spares are not directly
// addressable, exactly as in the hardware).
func (r *RAM) Words() int { return r.Arr.Words() }

// Wait forwards the retention delay.
func (r *RAM) Wait() { r.Arr.Wait() }

// translate maps a word address to (row-space, col-select) honouring
// the mode. The boolean reports whether the access was diverted to a
// spare.
func (r *RAM) translate(addr int) (row, cs int, spare bool) {
	bpc := r.Arr.Config().BPC
	row, cs = addr/bpc, addr%bpc
	if r.Mode == Map {
		if sp, ok := r.TLB.Lookup(row); ok {
			return sp, cs, true
		}
	}
	return row, cs, false
}

// Read returns the word at addr, diverted through the TLB in Map mode.
func (r *RAM) Read(addr int) uint64 {
	row, cs, spare := r.translate(addr)
	if spare {
		return r.Arr.ReadSpare(row, cs)
	}
	return r.Arr.Read(addr)
}

// Write stores the word at addr, diverted through the TLB in Map mode.
func (r *RAM) Write(addr int, data uint64) {
	row, cs, spare := r.translate(addr)
	if spare {
		r.Arr.WriteSpare(row, cs, data)
		return
	}
	r.Arr.Write(addr, data)
}
