package leafcell

import (
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// TestSharedMemoizesByContent: two calls with the same deck return
// the same *Library, and a distinct pointer with identical content
// aliases to the same memo entry (the daemon re-derives corner decks
// per request, so pointer keying would miss every time).
func TestSharedMemoizesByContent(t *testing.T) {
	before := shared.Len()
	a, err := Shared(tech.CDA07, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Shared(tech.CDA07, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same deck, same bufSize: want one shared library")
	}
	clone := *tech.CDA07 // distinct pointer, identical content
	c, err := Shared(&clone, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("content-identical deck under a new pointer must alias the memo entry")
	}
	if got := shared.Len(); got > before+1 {
		t.Fatalf("memo grew by %d entries for one deck", got-before)
	}
	// A different bufSize is a different library.
	d, err := Shared(tech.CDA07, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Fatal("bufSize must be part of the memo key")
	}
}

// TestSharedConcurrent hammers Shared from many goroutines; under
// -race this proves one build is published safely to all callers.
func TestSharedConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	libs := make([]*Library, 16)
	for i := range libs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := Shared(tech.CDA07, 1)
			if err != nil {
				t.Error(err)
				return
			}
			// Concurrent port lookups on the frozen cells must be pure
			// reads.
			if _, ok := l.Inv.Cell.Port("a"); !ok {
				t.Error("inverter lost its input port")
			}
			libs[i] = l
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(libs); i++ {
		if libs[i] != libs[0] {
			t.Fatal("concurrent callers got different libraries")
		}
	}
}

// TestSharedCellsAreFrozen: mutating a shared cell must panic at the
// mutation site (the documented invariant of the cerr panic policy)
// instead of corrupting a concurrent compile.
func TestSharedCellsAreFrozen(t *testing.T) {
	lib, err := Shared(tech.CDA07, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !lib.SRAM.Frozen() {
		t.Fatal("shared SRAM cell not frozen")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddShape on a frozen shared cell must panic")
		}
	}()
	lib.SRAM.AddShape(tech.Metal1, geom.R(0, 0, 10, 10), "oops")
}

// TestRowDecoderStaysMutable: derived cells built from a frozen
// library are fresh per call and must remain mutable.
func TestRowDecoderStaysMutable(t *testing.T) {
	lib, err := Shared(tech.CDA07, 1)
	if err != nil {
		t.Fatal(err)
	}
	dec := lib.RowDecoder(4)
	if dec.Frozen() {
		t.Fatal("derived row decoder should be mutable")
	}
	dec.AddShape(tech.Metal2, geom.R(0, 0, 10, 10), "strap") // must not panic
}

// TestNewLibraryStaysPrivate: the unshared constructor still hands
// out mutable cells (generators that post-process their library rely
// on it).
func TestNewLibraryStaysPrivate(t *testing.T) {
	lib, err := NewLibrary(tech.CDA07, 1)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Shared(tech.CDA07, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lib == shared {
		t.Fatal("NewLibrary must not return the shared instance")
	}
	if lib.Inv.Cell.Frozen() {
		t.Fatal("private library cells must stay mutable")
	}
	lib.Inv.Cell.AddShape(tech.Metal1, geom.R(0, 0, 5, 5), "x") // must not panic
}
