package gds

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/leafcell"
	"repro/internal/tech"
)

// checkSameBytes requires Write and Bytes to reproduce the oracle's
// stream for the hierarchy rooted at top.
func checkSameBytes(t *testing.T, top *geom.Cell, libName string) {
	t.Helper()
	var want, got bytes.Buffer
	if err := writeRef(&want, top, libName); err != nil {
		t.Fatal(err)
	}
	if err := Write(&got, top, libName); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Write diverged from the reference writer at byte %d of %d",
			firstDiff(got.Bytes(), want.Bytes()), want.Len())
	}
	b := Bytes(top, libName)
	if !bytes.Equal(b, want.Bytes()) {
		t.Fatalf("Bytes diverged from the reference writer at byte %d of %d",
			firstDiff(b, want.Bytes()), want.Len())
	}
	if cap(b) != len(b) {
		t.Fatalf("Bytes returned %d bytes with capacity %d, want exact size", len(b), cap(b))
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestWriteMatchesReference pins the writer against the oracle on a
// hand-built hierarchy that covers every record kind and name case,
// and on a real leaf cell.
func TestWriteMatchesReference(t *testing.T) {
	leaf := geom.NewCell("odd")
	for l := geom.Layer(0); l < tech.NumLayers; l++ {
		leaf.AddShape(l, geom.R(-100*int(l)-7, -3, 50, 40+int(l)), "")
	}
	even := geom.NewCell("even")
	even.AddShape(tech.Metal2, geom.R(-1<<20, -5, 1<<20, 5), "")
	long := geom.NewCell(strings.Repeat("abcdefghij", 4)) // 40 bytes, truncated to 32
	long.Place("e", even, geom.MYR90, geom.Point{X: -9, Y: 9})
	dupA := geom.NewCell("dup")
	dupA.AddShape(tech.Poly, geom.R(0, 0, 2, 2), "")
	dupB := geom.NewCell("dup") // same name, different cell
	dupB.AddShape(tech.Metal3, geom.R(0, 0, 3, 3), "")
	top := geom.NewCell("top cell/é!") // needs sanitizing
	for i, o := range geom.AllOrients {
		// The leaf is shared by every placement.
		top.Place("leaf", leaf, o, geom.Point{X: -1000 * i, Y: 37 * i})
	}
	top.Place("long", long, geom.R0, geom.Point{})
	top.Place("a", dupA, geom.MX, geom.Point{X: 5})
	top.Place("b", dupB, geom.R270, geom.Point{Y: -5})
	checkSameBytes(t, top, "bisram lib!")
	checkSameBytes(t, leafcell.SRAM6T(tech.CDA07).Cell, "leaf")
	checkSameBytes(t, geom.NewCell(""), "")
}

// FuzzGDSDifferential builds a cell hierarchy from the fuzz input and
// requires the single-buffer writer to match the record-at-a-time
// oracle byte for byte. The input drives the cell count, names (odd,
// even, over 32 bytes, needing sanitizing, duplicated), shapes on every
// layer with negative coordinates, and instances of earlier cells
// (shared children) in all eight orientations.
func FuzzGDSDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hierarchy"))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 32+rng.Intn(480))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		top, lib := hierarchyFrom(data)
		checkSameBytes(t, top, lib)
	})
}

// nameRunes mixes the GDSII structure-name alphabet with characters
// sanitize must replace (including a multi-byte rune).
var nameRunes = []rune("abcXYZ019_$-! ./é")

// hierarchyFrom decodes data into a cell DAG whose last cell is the
// top; an exhausted input reads as zeros.
func hierarchyFrom(data []byte) (*geom.Cell, string) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	coord := func() int { return int(int16(next()<<8 | next())) }
	name := func() string {
		n := next() % 41
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteRune(nameRunes[next()%len(nameRunes)])
		}
		return b.String()
	}
	lib := name()
	cells := make([]*geom.Cell, 1+next()%6)
	for i := range cells {
		c := geom.NewCell(name())
		if i > 0 && next()%4 == 0 {
			c.Name = cells[next()%i].Name // duplicate an earlier name
		}
		for n := next() % 6; n > 0; n-- {
			layer := geom.Layer(next() % int(tech.NumLayers))
			c.AddShape(layer, geom.R(coord(), coord(), coord(), coord()), "")
		}
		if i > 0 {
			for n := next() % 5; n > 0; n-- {
				o := geom.AllOrients[next()%len(geom.AllOrients)]
				c.Place("i", cells[next()%i], o, geom.Point{X: coord() << 8, Y: coord()})
			}
		}
		cells[i] = c
	}
	return cells[len(cells)-1], lib
}
