package geom

// Orient is one of the eight Manhattan orientations: a rotation by a
// multiple of 90° optionally preceded by a mirror about the y axis
// (x -> -x). The zero value is the identity.
type Orient struct {
	Rot    int  // quarter-turns CCW, 0..3
	Mirror bool // mirror X before rotating
}

// The eight named orientations, following the usual R0/R90/... naming.
var (
	R0    = Orient{Rot: 0}
	R90   = Orient{Rot: 1}
	R180  = Orient{Rot: 2}
	R270  = Orient{Rot: 3}
	MX    = Orient{Rot: 2, Mirror: true} // mirror about x axis (y -> -y)
	MY    = Orient{Rot: 0, Mirror: true} // mirror about y axis (x -> -x)
	MXR90 = Orient{Rot: 1, Mirror: true}
	MYR90 = Orient{Rot: 3, Mirror: true}
)

// AllOrients lists the eight distinct orientations.
var AllOrients = []Orient{R0, R90, R180, R270, MX, MY, MXR90, MYR90}

func (o Orient) String() string {
	switch o {
	case R0:
		return "R0"
	case R90:
		return "R90"
	case R180:
		return "R180"
	case R270:
		return "R270"
	case MX:
		return "MX"
	case MY:
		return "MY"
	case MXR90:
		return "MXR90"
	case MYR90:
		return "MYR90"
	}
	return "R?"
}

// TransformPoint applies o to p (about the origin).
func TransformPoint(p Point, o Orient) Point {
	if o.Mirror {
		p.X = -p.X
	}
	switch o.Rot & 3 {
	case 1:
		p.X, p.Y = -p.Y, p.X
	case 2:
		p.X, p.Y = -p.X, -p.Y
	case 3:
		p.X, p.Y = p.Y, -p.X
	}
	return p
}

// TransformRect applies o to r, returning a canonical rect.
func TransformRect(r Rect, o Orient) Rect {
	a := TransformPoint(Point{r.X0, r.Y0}, o)
	b := TransformPoint(Point{r.X1, r.Y1}, o)
	return Rect{a.X, a.Y, b.X, b.Y}.Canon()
}

// Compose returns the orientation equivalent to applying inner first,
// then outer: Compose(outer, inner)(p) == outer(inner(p)).
//
// The eight Manhattan orientations form a closed group, so composition
// is mathematically total; the panic below is a documented invariant
// site of the cerr panic policy (see package cerr), unreachable from
// any input.
func Compose(outer, inner Orient) Orient {
	// Work out action on basis vectors.
	ex := TransformPoint(TransformPoint(Point{1, 0}, inner), outer)
	ey := TransformPoint(TransformPoint(Point{0, 1}, inner), outer)
	for _, o := range AllOrients {
		if TransformPoint(Point{1, 0}, o) == ex && TransformPoint(Point{0, 1}, o) == ey {
			return o
		}
	}
	panic("geom: compose produced a non-Manhattan transform")
}
