// Package bisr implements BISRAMGEN's built-in self-repair: the
// translation lookaside buffer (TLB) that performs a parallel
// associative compare of the incoming row address against the stored
// faulty rows and diverts matches to spare rows in a predetermined,
// strictly increasing sequence; the repairable RAM wrapper; the
// combined test-and-repair controller (single two-pass run and the
// iterated 2k-pass variant that repairs faults within the spares
// themselves); and the two prior-art baselines the paper compares
// against (Sawada et al. 1989 and Chen–Sunada 1993).
package bisr

import "repro/internal/cerr"

// Entry is one TLB row: a faulty row address mapped to the spare row
// whose index equals the entry's position in the fill sequence.
type Entry struct {
	Row   int  // faulty row address
	Spare int  // spare row index it diverts to
	Valid bool // cleared when a later entry supersedes it
}

// TLB is the associative repair map. Stores assign spare rows in
// strictly increasing order; looking up a row returns the most recent
// valid entry, so remapping a row (e.g. when its first spare turned
// out faulty) supersedes the earlier mapping, exactly the property the
// paper uses to guarantee that any faulty row — spare or not — can be
// replaced given enough spares.
type TLB struct {
	spares   int
	entries  []Entry
	overflow bool
}

// NewTLB returns a TLB backed by the given number of spare rows. The
// constructor is total: a negative spare count is clamped to zero (a
// TLB with no capacity), matching the hardware reality that you cannot
// build negative spare rows. Spare counts are validated against the
// user envelope at the sram / compiler boundary.
func NewTLB(spares int) *TLB {
	if spares < 0 {
		spares = 0
	}
	return &TLB{spares: spares}
}

// Reset clears all entries (a fresh self-test run).
func (t *TLB) Reset() {
	t.entries = t.entries[:0]
	t.overflow = false
}

// Store records a faulty row, allocating the next spare in the
// strictly increasing sequence. Storing a row that already has a valid
// entry supersedes it (the old spare is abandoned). It returns the
// assigned spare index, or an error when the spares are exhausted.
func (t *TLB) Store(row int) (int, error) {
	if len(t.entries) >= t.spares {
		t.overflow = true
		return -1, cerr.New(cerr.CodeRepairFailed, "bisr: TLB full (%d spares)", t.spares)
	}
	for i := range t.entries {
		if t.entries[i].Valid && t.entries[i].Row == row {
			t.entries[i].Valid = false
		}
	}
	spare := len(t.entries)
	t.entries = append(t.entries, Entry{Row: row, Spare: spare, Valid: true})
	return spare, nil
}

// Lookup performs the parallel compare: it returns the spare row for
// an incoming row address, if any valid entry matches.
func (t *TLB) Lookup(row int) (int, bool) {
	// Hardware: all entries compare simultaneously; the newest valid
	// match wins via the priority encoder.
	for i := len(t.entries) - 1; i >= 0; i-- {
		if t.entries[i].Valid && t.entries[i].Row == row {
			return t.entries[i].Spare, true
		}
	}
	return 0, false
}

// Used returns the number of spares consumed (valid or superseded).
func (t *TLB) Used() int { return len(t.entries) }

// Overflow reports whether a store was rejected for lack of spares.
func (t *TLB) Overflow() bool { return t.overflow }

// Entries returns a copy of the entry table (for reports).
func (t *TLB) Entries() []Entry { return append([]Entry(nil), t.entries...) }
