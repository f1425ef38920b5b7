package leafcell

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/cjson"
	"repro/internal/memo"
	"repro/internal/tech"
)

// The shared-library memo. A leaf-cell library is a pure function of
// the technology deck and the buffer-size knob, yet the compiler used
// to regenerate it from scratch on every compile — for small arrays
// the rebuild dominated the whole run. Shared caches one immutable
// library per Fingerprint for the life of the process.
//
// Keying is by deck *content* (the canonical cjson serialization of
// the Process, hashed), not by pointer: the daemon re-derives corner
// decks per request, so pointer identity would miss on every call and
// leak one entry per request. Content keying means the three built-in
// decks, their corners, and any inline deck each memoize exactly once.
//
// Each cached library is frozen (geom.Cell.Freeze) before
// publication: every port index is pre-built, and any attempt to
// mutate a shared cell panics at the mutation site instead of
// corrupting a concurrent compile. sharedCap bounds the table against
// an adversarial stream of distinct inline decks (memo's policy: a
// full table clears).
const sharedCap = 128

var shared = memo.New[Fingerprint, *Library]("leafcell", sharedCap)

// DeckDigest is the SHA-256 of a deck's canonical JSON form — the
// same serialization the content-addressed compile cache hashes
// (internal/cjson), so two decks that alias to one compile key also
// alias to one digest.
type DeckDigest [sha256.Size]byte

// DigestDeck returns p's DeckDigest.
func DigestDeck(p *tech.Process) (DeckDigest, error) {
	doc, err := cjson.Marshal(p)
	if err != nil {
		return DeckDigest{}, fmt.Errorf("leafcell: deck fingerprint: %w", err)
	}
	return sha256.Sum256(doc), nil
}

// Fingerprint is the content key of a shared library: the deck digest
// and the buffer size, every input NewLibrary reads.
type Fingerprint struct {
	Deck    DeckDigest
	BufSize int
}

// Shared returns the process-wide memoized, frozen leaf-cell library
// for (p, bufSize), building it at most once per deck content while it
// stays in the table. Concurrent callers for the same deck share one
// build. The returned library and every cell in it are immutable, and
// it carries its Fingerprint, so the compiler's analysis memo keys on
// it without hashing the deck again; callers needing a private mutable
// library must use NewLibrary.
func Shared(p *tech.Process, bufSize int) (*Library, error) {
	deck, err := DigestDeck(p)
	if err != nil {
		return nil, err
	}
	fp := Fingerprint{Deck: deck, BufSize: bufSize}
	lib, _, err := shared.Do(fp, func() (*Library, error) {
		lib, err := NewLibrary(p, bufSize)
		if err != nil {
			return nil, err
		}
		lib.fp = fp
		lib.Freeze()
		return lib, nil
	})
	return lib, err
}

// Fingerprint returns the content key Shared stamped on the library;
// it is the zero value for a private NewLibrary library.
func (l *Library) Fingerprint() Fingerprint { return l.fp }

// Freeze marks every cell of the library immutable (see
// geom.Cell.Freeze). Derived cells built later by Library.RowDecoder
// are fresh per call and stay mutable.
func (l *Library) Freeze() {
	for _, c := range l.All() {
		c.Cell.Freeze()
	}
}
