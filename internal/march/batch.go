// Bit-parallel march execution: RunBatch drives a BatchDUT — a memory
// model evaluating up to 64 independent fault machines per access, one
// per bit of a uint64 lane mask — through a march test once and
// reports which lanes miscompared. One pass over the address space
// answers 64 single-fault detection questions, which is what makes
// the coverage experiments' fault campaigns cheap.
package march

// BatchDUT is a device under test evaluating many independent fault
// machines at once. Writes are lane-invariant (every lane executes the
// same march sequence); reads return per-bit lane masks so each lane's
// sensed word can be compared independently. sram.BatchArray is the
// canonical implementation.
type BatchDUT interface {
	Words() int
	// ReadBits senses the word at addr, storing bit b's lane mask into
	// out[b]. out must have at least bpw elements.
	ReadBits(addr int, out []uint64)
	Write(addr int, data uint64)
	// Wait models the data-retention delay phase, as DUT.Wait.
	Wait()
}

// RunBatch applies the test to every lane of the DUT at once for each
// background pattern and returns the mask of lanes that miscompared at
// least once — lane L of the result is set iff a scalar Run over lane
// L's machine would have logged a failure. Like Run, it keeps going
// after failures so late march elements still contribute detections.
func RunBatch(d BatchDUT, t Test, backgrounds []uint64, bpw int) uint64 {
	mask := ^uint64(0)
	if bpw < 64 {
		mask = 1<<uint(bpw) - 1
	}
	out := make([]uint64, bpw)
	var detected uint64
	n := d.Words()
	for _, bg := range backgrounds {
		bg &= mask
		for _, e := range t.Elements {
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
						continue
					}
					d.ReadBits(addr, out)
					for b := 0; b < bpw; b++ {
						var exp uint64
						if data>>uint(b)&1 == 1 {
							exp = ^uint64(0)
						}
						detected |= out[b] ^ exp
					}
				}
			}
		}
	}
	return detected
}
