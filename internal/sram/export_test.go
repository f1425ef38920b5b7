package sram

// UsedLanes returns the mask of lanes carrying an injected fault, for
// the external batch tests.
func (b *BatchArray) UsedLanes() uint64 { return b.used }
