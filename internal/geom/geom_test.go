package geom

import (
	"testing"
	"testing/quick"
)

func TestRectCanon(t *testing.T) {
	r := R(10, 20, 5, 2)
	if r.X0 != 5 || r.Y0 != 2 || r.X1 != 10 || r.Y1 != 20 {
		t.Fatalf("canon failed: %v", r)
	}
	if r.W() != 5 || r.H() != 18 {
		t.Fatalf("W/H wrong: %d %d", r.W(), r.H())
	}
	if r.Area() != 90 {
		t.Fatalf("area = %d", r.Area())
	}
}

func TestRectEmpty(t *testing.T) {
	if !(Rect{}).Empty() {
		t.Fatal("zero rect should be empty")
	}
	if R(0, 0, 0, 5).Empty() == false {
		t.Fatal("zero-width rect should be empty")
	}
	if R(0, 0, 1, 1).Empty() {
		t.Fatal("unit rect should not be empty")
	}
}

func TestUnionIntersect(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 20, 8)
	u := a.Union(b)
	if u != R(0, 0, 20, 10) {
		t.Fatalf("union = %v", u)
	}
	i := a.Intersect(b)
	if i != R(5, 5, 10, 8) {
		t.Fatalf("intersect = %v", i)
	}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatal("overlap expected")
	}
	c := R(11, 0, 12, 1)
	if a.Overlaps(c) {
		t.Fatal("no overlap expected")
	}
	if !a.Intersect(c).Empty() {
		t.Fatal("disjoint intersect should be empty")
	}
	// Union with empty is identity.
	if a.Union(Rect{}) != a || (Rect{}).Union(a) != a {
		t.Fatal("union with empty should be identity")
	}
}

func TestSeparation(t *testing.T) {
	a := R(0, 0, 10, 10)
	cases := []struct {
		b    Rect
		want int
	}{
		{R(12, 0, 20, 10), 2},  // pure x gap
		{R(0, 15, 10, 20), 5},  // pure y gap
		{R(13, 14, 20, 20), 4}, // diagonal: max(3,4)
		{R(10, 0, 20, 10), 0},  // touching
		{R(5, 5, 6, 6), 0},     // contained
	}
	for _, c := range cases {
		if got := a.Separation(c.b); got != c.want {
			t.Errorf("sep(%v,%v) = %d, want %d", a, c.b, got, c.want)
		}
		if got := c.b.Separation(a); got != c.want {
			t.Errorf("sep symmetric (%v) = %d, want %d", c.b, got, c.want)
		}
	}
}

func TestContainsInset(t *testing.T) {
	a := R(0, 0, 10, 10)
	if !a.Contains(R(2, 2, 8, 8)) {
		t.Fatal("contains failed")
	}
	if a.Contains(R(2, 2, 12, 8)) {
		t.Fatal("contains false positive")
	}
	if a.Inset(2) != R(2, 2, 8, 8) {
		t.Fatalf("inset = %v", a.Inset(2))
	}
	if a.Expand(3) != R(-3, -3, 13, 13) {
		t.Fatalf("expand = %v", a.Expand(3))
	}
}

func TestOrientGroup(t *testing.T) {
	// The eight orientations must be distinct as point actions.
	seen := map[[4]int]Orient{}
	for _, o := range AllOrients {
		ex := TransformPoint(Point{1, 0}, o)
		ey := TransformPoint(Point{0, 1}, o)
		key := [4]int{ex.X, ex.Y, ey.X, ey.Y}
		if prev, dup := seen[key]; dup {
			t.Fatalf("orientations %v and %v coincide", prev, o)
		}
		seen[key] = o
	}
	// Composition with inverse is identity on arbitrary points.
	p := Point{7, -3}
	for _, o := range AllOrients {
		inv := Invert(o)
		if got := TransformPoint(TransformPoint(p, o), inv); got != p {
			t.Fatalf("inverse of %v failed: got %v", o, got)
		}
	}
}

func TestComposeAssociativity(t *testing.T) {
	p := Point{5, 11}
	for _, a := range AllOrients {
		for _, b := range AllOrients {
			// Compose(a,b)(p) == a(b(p))
			want := TransformPoint(TransformPoint(p, b), a)
			got := TransformPoint(p, Compose(a, b))
			if got != want {
				t.Fatalf("compose(%v,%v) mismatch: %v vs %v", a, b, got, want)
			}
		}
	}
}

func TestTransformRectCanonical(t *testing.T) {
	r := R(1, 2, 5, 9)
	for _, o := range AllOrients {
		tr := TransformRect(r, o)
		if tr.X0 > tr.X1 || tr.Y0 > tr.Y1 {
			t.Fatalf("non-canonical transform under %v: %v", o, tr)
		}
		if tr.Area() != r.Area() {
			t.Fatalf("area not preserved under %v", o)
		}
	}
}

func TestCellPortsAndBounds(t *testing.T) {
	c := NewCell("leaf")
	c.AddShape(1, R(0, 0, 100, 50), "vdd")
	c.AddShape(2, R(0, 60, 100, 80), "gnd")
	c.AddPort("vdd", 1, R(0, 0, 10, 50), West)
	c.AddPort("gnd", 2, R(90, 60, 100, 80), East)
	if b := c.Bounds(); b != R(0, 0, 100, 80) {
		t.Fatalf("bounds = %v", b)
	}
	p, ok := c.Port("vdd")
	if !ok || p.Dir != West {
		t.Fatalf("port lookup failed: %v %v", p, ok)
	}
	if _, ok := c.Port("nope"); ok {
		t.Fatal("phantom port")
	}
	// Replacing a port keeps count stable.
	c.AddPort("vdd", 1, R(0, 0, 5, 50), West)
	if len(c.Ports) != 2 {
		t.Fatalf("port replace duplicated: %d", len(c.Ports))
	}
	if p, _ := c.Port("vdd"); p.Rect != R(0, 0, 5, 50) {
		t.Fatalf("replaced port rect = %v", p.Rect)
	}
}

func TestCellAbutOverridesBounds(t *testing.T) {
	c := NewCell("x")
	c.AddShape(1, R(2, 2, 8, 8), "")
	c.Abut = R(0, 0, 10, 10)
	if c.Bounds() != R(0, 0, 10, 10) {
		t.Fatalf("abut not honoured: %v", c.Bounds())
	}
}

func TestFlattenHierarchy(t *testing.T) {
	leaf := NewCell("leaf")
	leaf.AddShape(1, R(0, 0, 10, 10), "a")

	mid := NewCell("mid")
	mid.Place("l0", leaf, R0, Point{0, 0})
	mid.Place("l1", leaf, R0, Point{20, 0})

	top := NewCell("top")
	top.Place("m0", mid, R0, Point{0, 0})
	top.Place("m1", mid, R90, Point{100, 0})

	fl := top.Flatten()
	if len(fl) != 4 {
		t.Fatalf("flatten count = %d", len(fl))
	}
	// m0/l1 should be at (20,0)-(30,10).
	found := false
	for _, s := range fl {
		if s.Rect == R(20, 0, 30, 10) {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing translated leaf; got %v", fl)
	}
	// Rotated instance: leaf (0,0,10,10) under R90 -> (-10,0,0,10), +100 x.
	found = false
	for _, s := range fl {
		if s.Rect == R(90, 0, 100, 10) {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing rotated leaf; got %v", fl)
	}
}

func TestDRCWidthAndSpacing(t *testing.T) {
	c := NewCell("d")
	c.AddShape(1, R(0, 0, 2, 100), "a")   // width 2: violates MinWidth 3
	c.AddShape(1, R(4, 0, 20, 100), "b")  // spacing 2 to shape a: violates 3
	c.AddShape(1, R(40, 0, 60, 100), "b") // far away, fine
	rules := map[Layer]Rule{1: {MinWidth: 3, MinSpacing: 3}}
	vs := Check(c, rules, 0)
	var widths, spacings int
	for _, v := range vs {
		switch v.Kind {
		case "width":
			widths++
		case "spacing":
			spacings++
		}
	}
	if widths != 1 || spacings != 1 {
		t.Fatalf("got %d width, %d spacing violations: %v", widths, spacings, vs)
	}
}

func TestDRCSameNetAbutmentExempt(t *testing.T) {
	c := NewCell("d")
	c.AddShape(1, R(0, 0, 10, 10), "n")
	c.AddShape(1, R(10, 0, 20, 10), "n") // abuts, same net: legal
	rules := map[Layer]Rule{1: {MinSpacing: 3}}
	if vs := Check(c, rules, 0); len(vs) != 0 {
		t.Fatalf("same-net abutment flagged: %v", vs)
	}
	// Different nets abutting is still a violation (a short).
	c2 := NewCell("d2")
	c2.AddShape(1, R(0, 0, 10, 10), "n1")
	c2.AddShape(1, R(11, 0, 20, 10), "n2") // 1 < 3 spacing
	if vs := Check(c2, rules, 0); len(vs) != 1 {
		t.Fatalf("cross-net spacing missed: %v", vs)
	}
}

func TestDRCMaxViolations(t *testing.T) {
	c := NewCell("d")
	for i := 0; i < 10; i++ {
		c.AddShape(1, R(i*100, 0, i*100+1, 10), "") // all width violations
	}
	rules := map[Layer]Rule{1: {MinWidth: 5}}
	if vs := Check(c, rules, 3); len(vs) != 3 {
		t.Fatalf("cap not honoured: %d", len(vs))
	}
}

// Property: Union is commutative, associative-ish (bounding), and
// contains both operands.
func TestQuickUnionProperties(t *testing.T) {
	f := func(ax0, ay0, aw, ah, bx0, by0, bw, bh int16) bool {
		a := R(int(ax0), int(ay0), int(ax0)+abs16(aw)+1, int(ay0)+abs16(ah)+1)
		b := R(int(bx0), int(by0), int(bx0)+abs16(bw)+1, int(by0)+abs16(bh)+1)
		u := a.Union(b)
		return u == b.Union(a) && u.Contains(a) && u.Contains(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: all orientations preserve rect area and Separation is
// orientation-invariant when both rects are transformed together.
func TestQuickTransformInvariants(t *testing.T) {
	f := func(x0, y0, w, h, bx, by, bw, bh int16, oi uint8) bool {
		o := AllOrients[int(oi)%len(AllOrients)]
		a := R(int(x0), int(y0), int(x0)+abs16(w)+1, int(y0)+abs16(h)+1)
		b := R(int(bx), int(by), int(bx)+abs16(bw)+1, int(by)+abs16(bh)+1)
		ta, tb := TransformRect(a, o), TransformRect(b, o)
		return ta.Area() == a.Area() && ta.Separation(tb) == a.Separation(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Intersect result is contained in both operands and
// Overlaps agrees with non-empty intersection.
func TestQuickIntersectProperties(t *testing.T) {
	f := func(ax0, ay0, aw, ah, bx0, by0, bw, bh int16) bool {
		a := R(int(ax0), int(ay0), int(ax0)+abs16(aw)+1, int(ay0)+abs16(ah)+1)
		b := R(int(bx0), int(by0), int(bx0)+abs16(bw)+1, int(by0)+abs16(bh)+1)
		i := a.Intersect(b)
		if i.Empty() {
			return !a.Overlaps(b)
		}
		return a.Overlaps(b) && a.Contains(i) && b.Contains(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointArithmetic(t *testing.T) {
	a := Point{3, 4}
	b := Point{1, 2}
	if a.Add(b) != (Point{4, 6}) {
		t.Fatal("point arithmetic wrong")
	}
	if R(0, 0, 10, 20).Center() != (Point{5, 10}) {
		t.Fatal("center wrong")
	}
}

func TestStringRenderings(t *testing.T) {
	if R(1, 2, 3, 4).String() != "(1,2)-(3,4)" {
		t.Fatalf("rect string %q", R(1, 2, 3, 4).String())
	}
	for _, o := range AllOrients {
		if o.String() == "R?" {
			t.Fatalf("unnamed orientation %+v", o)
		}
	}
	for d, want := range map[PortDir]string{North: "N", South: "S", East: "E", West: "W", Inner: "I"} {
		if d.String() != want {
			t.Fatalf("dir string %v", d)
		}
	}
	vW := Violation{Layer: 1, Kind: "width", A: R(0, 0, 1, 1), Got: 1, Want: 3}
	vS := Violation{Layer: 1, Kind: "spacing", A: R(0, 0, 1, 1), B: R(2, 0, 3, 1), Got: 1, Want: 3}
	if vW.String() == "" || vS.String() == "" {
		t.Fatal("violation strings empty")
	}
}

func TestMustPortAndAreas(t *testing.T) {
	c := NewCell("c")
	c.AddShape(1, R(0, 0, 1000, 2000), "")
	if c.Area() != 2_000_000 {
		t.Fatalf("area %d", c.Area())
	}
}

func TestInstanceBoundsDirect(t *testing.T) {
	leaf := NewCell("leaf")
	leaf.AddShape(1, R(0, 0, 10, 20), "")
	top := NewCell("top")
	in := top.Place("i", leaf, R90, Point{X: 100, Y: 50})
	// R90 swaps w/h: 10x20 -> 20x10 at the translated origin.
	got := in.Bounds()
	if got.W() != 20 || got.H() != 10 {
		t.Fatalf("instance bounds %v", got)
	}
}

func abs16(v int16) int {
	if v < 0 {
		if v == -32768 {
			return 32767
		}
		return int(-v)
	}
	return int(v)
}

// Contains reports whether s lies entirely inside r; the rectangle
// property tests use it as their oracle.
func (r Rect) Contains(s Rect) bool {
	return r.X0 <= s.X0 && r.Y0 <= s.Y0 && r.X1 >= s.X1 && r.Y1 >= s.Y1
}

// Invert returns the inverse orientation, found by search over
// Compose; TestOrientGroup checks TransformPoint against it.
func Invert(o Orient) Orient {
	for _, inv := range AllOrients {
		if Compose(o, inv) == R0 {
			return inv
		}
	}
	panic("geom: orientation has no inverse")
}
