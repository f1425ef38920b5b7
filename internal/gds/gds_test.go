package gds

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/leafcell"
	"repro/internal/tech"
)

func TestReal8RoundTripValues(t *testing.T) {
	// Decode helper for the excess-64 format.
	decode := func(b []byte) float64 {
		if b[0]&0x7f == 0 && b[1] == 0 {
			return 0
		}
		sign := 1.0
		if b[0]&0x80 != 0 {
			sign = -1
		}
		exp := int(b[0]&0x7f) - 64
		var mant uint64
		for i := 1; i < 8; i++ {
			mant = mant<<8 | uint64(b[i])
		}
		return sign * float64(mant) / math.Pow(2, 56) * math.Pow(16, float64(exp))
	}
	for _, v := range []float64{0, 1e-9, 1e-3, 1, 2.5, -3.75, 90, 270} {
		r := real8(v)
		got := decode(r[:])
		if math.Abs(got-v) > math.Abs(v)*1e-12+1e-300 {
			t.Errorf("real8(%g) decodes to %g", v, got)
		}
	}
}

func TestWriteAndSummarize(t *testing.T) {
	leaf := geom.NewCell("bit")
	leaf.AddShape(tech.Metal1, geom.R(0, 0, 100, 50), "a")
	leaf.AddShape(tech.Poly, geom.R(10, 10, 30, 40), "g")
	top := geom.NewCell("top!") // name needs sanitising
	top.Place("i0", leaf, geom.R0, geom.Point{})
	top.Place("i1", leaf, geom.MX, geom.Point{Y: 100})
	top.Place("i2", leaf, geom.R90, geom.Point{X: 200})

	var buf bytes.Buffer
	if err := Write(&buf, top, "bisramgen"); err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Structures) != 2 || s.Structures[0] != "bit" || s.Structures[1] != "top_" {
		t.Fatalf("structures %v", s.Structures)
	}
	if s.SRefs != 3 {
		t.Fatalf("srefs %d", s.SRefs)
	}
	if s.Boundaries[int(tech.Metal1)] != 1 || s.Boundaries[int(tech.Poly)] != 1 {
		t.Fatalf("boundaries %v", s.Boundaries)
	}
	// Stream must start with HEADER and end with ENDLIB.
	recs, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Type != recHEADER || recs[len(recs)-1].Type != recENDLIB {
		t.Fatal("framing records wrong")
	}
}

func TestOrientationEncoding(t *testing.T) {
	cases := map[geom.Orient]struct {
		mirror bool
		angle  float64
	}{
		geom.R0: {false, 0}, geom.R90: {false, 90},
		geom.R180: {false, 180}, geom.R270: {false, 270},
		geom.MX: {true, 0}, geom.MY: {true, 180},
		geom.MXR90: {true, 270}, geom.MYR90: {true, 90},
	}
	for o, want := range cases {
		m, a := strans(o)
		if m != want.mirror || a != want.angle {
			t.Errorf("%v -> (%v,%v), want (%v,%v)", o, m, a, want.mirror, want.angle)
		}
	}
	// Verify the mapping is faithful: GDSII applies reflect-about-X
	// then CCW rotation; that composite must equal geom's transform.
	p := geom.Point{X: 3, Y: 7}
	for o := range cases {
		m, aDeg := strans(o)
		x, y := float64(p.X), float64(p.Y)
		if m {
			y = -y
		}
		rad := aDeg * math.Pi / 180
		rx := x*math.Cos(rad) - y*math.Sin(rad)
		ry := x*math.Sin(rad) + y*math.Cos(rad)
		want := geom.TransformPoint(p, o)
		if math.Abs(rx-float64(want.X)) > 1e-9 || math.Abs(ry-float64(want.Y)) > 1e-9 {
			t.Errorf("%v: GDS transform gives (%.0f,%.0f), geom gives %v", o, rx, ry, want)
		}
	}
}

func TestUniqueNamesForDuplicates(t *testing.T) {
	a := geom.NewCell("cell")
	a.AddShape(tech.Metal1, geom.R(0, 0, 1, 1), "")
	b := geom.NewCell("cell") // same name, different cell
	b.AddShape(tech.Metal2, geom.R(0, 0, 2, 2), "")
	top := geom.NewCell("top")
	top.Place("x", a, geom.R0, geom.Point{})
	top.Place("y", b, geom.R0, geom.Point{X: 10})
	var buf bytes.Buffer
	if err := Write(&buf, top, "lib"); err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, n := range s.Structures {
		if seen[n] {
			t.Fatalf("duplicate structure name %q", n)
		}
		seen[n] = true
	}
}

func TestLeafCellExportsCleanly(t *testing.T) {
	cell := leafcell.SRAM6T(tech.CDA07)
	var buf bytes.Buffer
	if err := Write(&buf, cell.Cell, "leaf"); err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range s.Boundaries {
		total += n
	}
	if total != len(cell.Shapes) {
		t.Fatalf("boundary count %d != shape count %d", total, len(cell.Shapes))
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte{0, 1}); err == nil {
		t.Fatal("truncated header accepted")
	}
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[0:2], 100) // claims 100 bytes, has 4
	binary.BigEndian.PutUint16(hdr[2:4], recHEADER)
	if _, err := Parse(hdr[:]); err == nil {
		t.Fatal("over-long record accepted")
	}
}
