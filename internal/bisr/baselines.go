package bisr

import (
	"sort"

	"repro/internal/cerr"
)

// This file implements the two prior-art self-repair schemes the
// paper critiques in Section III, used as experimental baselines.

// Sawada is the 1989 address-comparison scheme of Sawada et al.: a
// single fail-address register compared against every incoming
// address, diverting a match to one spare location. It can repair
// exactly one faulty word address.
type Sawada struct {
	failAddr int
	valid    bool
	// overflowed records that a second distinct faulty address was
	// presented and could not be registered.
	overflowed bool
}

// NewSawada returns an empty fail-address register.
func NewSawada() *Sawada { return &Sawada{} }

// Register records a faulty word address. The scheme holds only one;
// a second distinct address overflows.
func (s *Sawada) Register(addr int) bool {
	if s.valid && s.failAddr != addr {
		s.overflowed = true
		return false
	}
	s.failAddr, s.valid = addr, true
	return true
}

// Repaired reports whether all registered faults are covered.
func (s *Sawada) Repaired() bool { return !s.overflowed }

// ChenSunadaConfig describes the hierarchical organisation of the
// Chen–Sunada 1993 scheme: the memory is decomposed into subblocks,
// each with two fault-capture blocks (so at most two faulty word
// addresses repairable per subblock); unrepairable subblocks are
// excluded by the top-level fault assembler, which can divert accesses
// to spare subblocks.
type ChenSunadaConfig struct {
	Words         int // total words
	SubblockWords int // words per lowest-level subblock
	SpareBlocks   int // spare subblocks available to the fault assembler
}

// ChenSunada models the baseline's repair capability.
type ChenSunada struct {
	cfg ChenSunadaConfig
	// capture[b] holds the faulty addresses captured in subblock b
	// (max 2 used for repair).
	capture    map[int][]int
	deadBlocks []int
}

// NewChenSunada returns an empty instance, or a typed
// cerr.ErrInvalidParams when the hierarchical geometry is impossible
// (non-positive sizes, or words not a multiple of the subblock size).
func NewChenSunada(cfg ChenSunadaConfig) (*ChenSunada, error) {
	if cfg.SubblockWords <= 0 || cfg.Words <= 0 || cfg.Words%cfg.SubblockWords != 0 {
		return nil, cerr.New(cerr.CodeInvalidParams,
			"bisr: bad Chen-Sunada geometry (words %d, subblock %d)", cfg.Words, cfg.SubblockWords)
	}
	return &ChenSunada{cfg: cfg, capture: map[int][]int{}}, nil
}

// Register records a faulty word address in its subblock's fault
// signature block.
func (c *ChenSunada) Register(addr int) {
	b := addr / c.cfg.SubblockWords
	for _, a := range c.capture[b] {
		if a == addr {
			return
		}
	}
	c.capture[b] = append(c.capture[b], addr)
}

// Resolve runs the fault assembler: subblocks with more than two
// faulty addresses are excluded and diverted to spare blocks. It
// returns whether the whole memory is repaired.
func (c *ChenSunada) Resolve() bool {
	c.deadBlocks = c.deadBlocks[:0]
	for b, addrs := range c.capture {
		if len(addrs) > 2 {
			c.deadBlocks = append(c.deadBlocks, b)
		}
	}
	sort.Ints(c.deadBlocks)
	return len(c.deadBlocks) <= c.cfg.SpareBlocks
}
