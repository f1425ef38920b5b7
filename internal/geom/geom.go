// Package geom provides the geometry kernel underlying all layout
// generation in BISRAMGEN: integer points and rectangles in a fixed
// database unit (1 unit = 1 nanometre), the eight Manhattan
// orientations, hierarchical cells with instances, named ports, and a
// simplified width/spacing design-rule checker.
//
// All coordinates are integers. Layout generators work in nanometres so
// that half-lambda quantities for sub-micron processes remain exactly
// representable.
package geom

import (
	"fmt"
	"slices"
)

// DBUPerMicron is the number of database units per micron. All layout
// code in this repository uses 1 dbu = 1 nm.
const DBUPerMicron = 1000

// Point is a location in database units.
type Point struct {
	X, Y int
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Rect is an axis-aligned rectangle. A Rect is canonical when
// X0 <= X1 and Y0 <= Y1; Canon returns the canonical form.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// R is shorthand for constructing a canonical Rect.
func R(x0, y0, x1, y1 int) Rect { return Rect{x0, y0, x1, y1}.Canon() }

// Canon returns r with its corners ordered so X0<=X1 and Y0<=Y1.
func (r Rect) Canon() Rect {
	if r.X0 > r.X1 {
		r.X0, r.X1 = r.X1, r.X0
	}
	if r.Y0 > r.Y1 {
		r.Y0, r.Y1 = r.Y1, r.Y0
	}
	return r
}

// W returns the width (x extent) of r.
func (r Rect) W() int { return r.X1 - r.X0 }

// H returns the height (y extent) of r.
func (r Rect) H() int { return r.Y1 - r.Y0 }

// Area returns the area of r in dbu².
func (r Rect) Area() int64 { return int64(r.W()) * int64(r.H()) }

// Empty reports whether r has zero area.
func (r Rect) Empty() bool { return r.X0 >= r.X1 || r.Y0 >= r.Y1 }

// Center returns the midpoint of r (rounded toward -inf).
func (r Rect) Center() Point { return Point{(r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2} }

// Translate returns r moved by d.
func (r Rect) Translate(d Point) Rect {
	return Rect{r.X0 + d.X, r.Y0 + d.Y, r.X1 + d.X, r.Y1 + d.Y}
}

// Union returns the bounding box of r and s. The union of an empty
// rect with s is s.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{min(r.X0, s.X0), min(r.Y0, s.Y0), max(r.X1, s.X1), max(r.Y1, s.Y1)}
}

// Intersect returns the overlap of r and s; the result is Empty when
// they do not overlap.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{max(r.X0, s.X0), max(r.Y0, s.Y0), min(r.X1, s.X1), min(r.Y1, s.Y1)}
	if out.X0 > out.X1 || out.Y0 > out.Y1 {
		return Rect{}
	}
	return out
}

// Overlaps reports whether r and s share interior area.
func (r Rect) Overlaps(s Rect) bool {
	return r.X0 < s.X1 && s.X0 < r.X1 && r.Y0 < s.Y1 && s.Y0 < r.Y1
}

// Inset returns r shrunk by d on every side. Insetting past the
// midline yields an empty (possibly inverted, then canonicalised) rect.
func (r Rect) Inset(d int) Rect {
	return Rect{r.X0 + d, r.Y0 + d, r.X1 - d, r.Y1 - d}
}

// Expand returns r grown by d on every side.
func (r Rect) Expand(d int) Rect { return r.Inset(-d) }

// Separation returns the Manhattan gap between r and s: the larger of
// the x-gap and y-gap between their closest edges. It is 0 when the
// rectangles touch or overlap in both axes.
func (r Rect) Separation(s Rect) int {
	dx := max(max(r.X0-s.X1, s.X0-r.X1), 0)
	dy := max(max(r.Y0-s.Y1, s.Y0-r.Y1), 0)
	return max(dx, dy)
}

func (r Rect) String() string {
	return fmt.Sprintf("(%d,%d)-(%d,%d)", r.X0, r.Y0, r.X1, r.Y1)
}

// Layer identifies a mask layer. The technology package assigns layer
// numbers; geometry code treats them as opaque identifiers.
type Layer int

// Reserved layer values used by generators that have not bound a
// technology yet. Real designs use tech.Process layer ids, which are
// compatible by construction.
const (
	LayerInvalid Layer = iota - 1
)

// Shape is a rectangle on a layer, optionally labelled with the net it
// belongs to (extraction uses the label; unlabeled shapes are wiring
// whose net is inferred).
type Shape struct {
	Layer Layer
	Rect  Rect
	Net   string
}

// PortDir describes which edge of a cell a port is expected to be
// reachable from, which the floorplanner's port-alignment heuristic
// uses.
type PortDir int

// Port edge directions.
const (
	North PortDir = iota
	South
	East
	West
	Inner // not on a boundary; reached by over-the-cell routing
)

func (d PortDir) String() string {
	switch d {
	case North:
		return "N"
	case South:
		return "S"
	case East:
		return "E"
	case West:
		return "W"
	default:
		return "I"
	}
}

// Port is a named connection point of a cell: a rectangle on a routing
// layer, tagged with the boundary edge it sits on.
type Port struct {
	Name  string
	Layer Layer
	Rect  Rect
	Dir   PortDir
}

// Instance places a child cell at an offset with an orientation.
type Instance struct {
	Name   string
	Cell   *Cell
	Orient Orient
	At     Point // placement of the child's transformed origin
}

// Bounds returns the placed bounding box of the instance.
func (in *Instance) Bounds() Rect {
	return TransformRect(in.Cell.Bounds(), in.Orient).Translate(in.At)
}

// Cell is a layout cell: local shapes, child instances, and ports.
// Leaf cells have no instances; macrocells are compositions.
type Cell struct {
	Name      string
	Shapes    []Shape
	Instances []Instance
	Ports     []Port

	// Abut is the abutment box: the area the cell logically occupies
	// for placement, which may exceed the shape bounding box (e.g. to
	// reserve spacing). Zero means "use shape bounds".
	Abut Rect

	portIdx map[string]int
	frozen  bool
}

// NewCell returns an empty cell with the given name.
func NewCell(name string) *Cell { return &Cell{Name: name} }

// Freeze marks the cell subtree immutable: any later AddShape,
// AddPort or Place panics. Freezing also pre-builds every port index,
// so Port lookups on a frozen cell are pure reads — the property that
// makes one frozen cell safe to share across concurrent compiles
// (the memoized leaf-cell library relies on it). Freeze is idempotent
// and recurses into instanced children. Like MustPort, the mutation
// panic is a documented invariant site of the cerr panic policy:
// generators run behind compile-stage Recover guards, so a violation
// surfaces to callers as a typed ErrInternal, never a crash.
func (c *Cell) Freeze() {
	if c.frozen {
		return
	}
	c.Port("") // force-build portIdx before publication
	c.frozen = true
	for i := range c.Instances {
		c.Instances[i].Cell.Freeze()
	}
}

// Frozen reports whether the cell has been frozen.
func (c *Cell) Frozen() bool { return c.frozen }

// mutcheck panics when a mutating method runs on a frozen cell.
func (c *Cell) mutcheck(op string) {
	if c.frozen {
		panic(fmt.Sprintf("geom: %s on frozen cell %q (shared library cells are immutable)", op, c.Name))
	}
}

// AddShape appends a rectangle on a layer, labelled with net (may be
// empty for anonymous wiring).
func (c *Cell) AddShape(l Layer, r Rect, net string) {
	c.mutcheck("AddShape")
	c.Shapes = append(c.Shapes, Shape{Layer: l, Rect: r.Canon(), Net: net})
}

// AddPort registers a named port. Re-adding a name replaces the
// earlier port.
func (c *Cell) AddPort(name string, l Layer, r Rect, dir PortDir) {
	c.mutcheck("AddPort")
	if c.portIdx == nil {
		c.portIdx = make(map[string]int)
	}
	p := Port{Name: name, Layer: l, Rect: r.Canon(), Dir: dir}
	if i, ok := c.portIdx[name]; ok {
		c.Ports[i] = p
		return
	}
	c.portIdx[name] = len(c.Ports)
	c.Ports = append(c.Ports, p)
}

// Port looks up a port by name.
func (c *Cell) Port(name string) (Port, bool) {
	if c.portIdx == nil {
		c.portIdx = make(map[string]int)
		for i, p := range c.Ports {
			c.portIdx[p.Name] = i
		}
	}
	i, ok := c.portIdx[name]
	if !ok {
		return Port{}, false
	}
	return c.Ports[i], true
}

// Grow makes room for n more instances, so a generator that knows its
// instance count sizes the slice once instead of growing it by
// appends.
func (c *Cell) Grow(n int) {
	c.mutcheck("Grow")
	c.Instances = slices.Grow(c.Instances, n)
}

// Place adds an instance of child at the given point with orientation o.
func (c *Cell) Place(name string, child *Cell, o Orient, at Point) *Instance {
	c.mutcheck("Place")
	c.Instances = append(c.Instances, Instance{Name: name, Cell: child, Orient: o, At: at})
	return &c.Instances[len(c.Instances)-1]
}

// Bounds returns the abutment box if set, else the union of all shape
// and instance bounding boxes.
func (c *Cell) Bounds() Rect {
	if !c.Abut.Empty() {
		return c.Abut
	}
	var b Rect
	for _, s := range c.Shapes {
		b = b.Union(s.Rect)
	}
	for i := range c.Instances {
		b = b.Union(c.Instances[i].Bounds())
	}
	return b
}

// Area returns the area of the cell bounding box in dbu².
func (c *Cell) Area() int64 { return c.Bounds().Area() }

// Flatten returns every shape in the cell subtree transformed into the
// coordinate system of c. Port shapes are not included.
func (c *Cell) Flatten() []Shape {
	var out []Shape
	c.flattenInto(&out, Orient{}, Point{})
	return out
}

func (c *Cell) flattenInto(out *[]Shape, o Orient, at Point) {
	for _, s := range c.Shapes {
		*out = append(*out, Shape{Layer: s.Layer, Rect: TransformRect(s.Rect, o).Translate(at), Net: s.Net})
	}
	for i := range c.Instances {
		in := &c.Instances[i]
		co := Compose(o, in.Orient)
		cAt := TransformPoint(in.At, o).Add(at)
		in.Cell.flattenInto(out, co, cAt)
	}
}
