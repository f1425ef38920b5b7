package cjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// checkMarshal requires Marshal and MarshalIndent to match the oracle:
// equal bytes, or an error from both.
func checkMarshal(t *testing.T, v any) {
	t.Helper()
	for _, indent := range []bool{false, true} {
		marshal, ref := Marshal, refMarshal
		if indent {
			marshal, ref = MarshalIndent, refMarshalIndent
		}
		got, err := marshal(v)
		want, refErr := ref(v)
		if (err == nil) != (refErr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("indent=%v, value %#v:\n got  %q (err %v)\n want %q (err %v)", indent, v, got, err, want, refErr)
		}
	}
}

// checkCanonicalize requires Canonicalize to match the oracle.
func checkCanonicalize(t *testing.T, doc []byte) {
	t.Helper()
	got, err := Canonicalize(doc)
	want, refErr := refCanonicalize(doc)
	if (err == nil) != (refErr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("document %q:\n got  %q (err %v)\n want %q (err %v)", doc, got, err, want, refErr)
	}
}

// FuzzCanonicalDifferential compares the one-pass encoder with the
// round-trip oracle in ref_test.go. Each input is used three ways: as
// a raw document for Canonicalize, as the seed of a generated JSON
// document (shuffled and repeated keys, escapes, surrogates, odd
// number spellings, whitespace), and as the seed of a generated Go
// value over the types below. The two must give equal bytes or both
// fail.
func FuzzCanonicalDifferential(f *testing.F) {
	f.Add([]byte(`{"b":[1,2.50,-0,1e400],"a":"\ud800\u0041","b":null}`))
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"))
	f.Add([]byte("\x07\x05\x05\x05\x05\x05\x05\x05\x05\x05\x05\x05\x05\x05\xff\xfe\xfd"))
	f.Add([]byte("\x08\x10\x20\x30\x40\x50\x60\x70\x80\x90\xa0\xb0\xc0\xd0\xe0\xf0"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCanonicalize(t, data)
		checkCanonicalize(t, (&gen{data: data}).doc(4))
		checkMarshal(t, (&gen{data: data}).top())
	})
}

// gen draws choices from fuzz bytes; it yields zeros once they run out.
type gen struct{ data []byte }

func (g *gen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *gen) intn(n int) int { return int(g.byte()) % n }

func (g *gen) u64() uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x = x<<8 | uint64(g.byte())
	}
	return x
}

func (g *gen) bytes(max int) []byte {
	n := g.intn(max + 1)
	if n > len(g.data) {
		n = len(g.data)
	}
	b := g.data[:n:n]
	g.data = g.data[n:]
	return b
}

func (g *gen) pick(s string) byte { return s[g.intn(len(s))] }

var specialFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-7, 1e-6, 123456789.5, 1e20, 1e21, 1e300, 5e-324,
	math.MaxFloat64, math.Ldexp(1, 53), math.Ldexp(1, 53) + 2, math.Ldexp(1, 60), math.Ldexp(1, 63),
	-math.Ldexp(1, 63), math.Ldexp(1, 64), -math.Ldexp(1, 64), 1.5e19, 9.999999999999999e20,
	math.Ldexp(1, 24) + 2, math.Ldexp(1, 40), 3.4e38, math.NaN(), math.Inf(1), math.Inf(-1),
}

func (g *gen) float64() float64 {
	switch g.intn(4) {
	case 0:
		return math.Float64frombits(g.u64())
	case 1:
		return specialFloats[g.intn(len(specialFloats))]
	case 2: // integral, often beyond 2^53
		return float64(int64(g.u64()) >> g.intn(64))
	}
	return float64(int32(g.u64())) * math.Pow(10, float64(g.intn(50)-25))
}

func (g *gen) float32() float32 {
	if g.intn(2) == 0 {
		return math.Float32frombits(uint32(g.u64()))
	}
	return float32(g.float64())
}

// number spells a number literal: digits, fraction and exponent in
// any combination, or arbitrary bytes.
func (g *gen) number() string {
	if g.intn(8) == 0 {
		return string(g.bytes(6))
	}
	var b []byte
	if g.intn(2) == 0 {
		b = append(b, '-')
	}
	b = append(b, g.pick("0123456789"))
	for n := g.intn(4) * g.intn(8); n > 0; n-- {
		b = append(b, g.pick("0123456789"))
	}
	if g.intn(2) == 0 {
		b = append(b, '.', g.pick("0123456789"), g.pick("05"))
	}
	if g.intn(3) == 0 {
		b = append(b, g.pick("eE"))
		b = append(b, g.pick("+-0123"))
		b = append(b, g.pick("0123456789"))
	}
	return string(b)
}

// str spells the inside of a JSON string literal: plain and multi-byte
// text, every escape, surrogate pairs, lone surrogates, and the odd
// invalid UTF-8 or raw control byte.
func (g *gen) str() []byte {
	parts := []string{"a", "b", "B", "é", "日", "<>&", "\u2028", `\"`, `\\`, `\/`, `\b`, `\f`, `\n`, `\r`, `\t`,
		`\u0061`, `\u00e9`, `\u0000`, `\ud83d\ude00`, `\ud800`, `\udc00`, `\ud800\u0041`, `\uD83D\uDE00`, "\xff", "\x01", "\xed\xa0\x80"}
	var b []byte
	for n := g.intn(4); n > 0; n-- {
		b = append(b, parts[g.intn(len(parts))]...)
	}
	return b
}

func (g *gen) space(b []byte) []byte {
	for n := g.intn(4) / 2; n > 0; n-- {
		b = append(b, g.pick(" \t\n\r"))
	}
	return b
}

// doc generates a JSON document that is usually valid.
func (g *gen) doc(depth int) []byte { return g.docValue(nil, depth) }

func (g *gen) docValue(b []byte, depth int) []byte {
	b = g.space(b)
	switch k := g.intn(12); {
	case k == 0:
		b = append(b, []string{"null", "true", "false"}[g.intn(3)]...)
	case k <= 2:
		b = append(b, g.number()...)
	case k <= 4:
		b = append(b, '"')
		b = append(b, g.str()...)
		b = append(b, '"')
	case k <= 7 && depth > 0:
		b = append(b, '{')
		for i, n := 0, g.intn(5); i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = g.space(b)
			b = append(b, '"')
			b = append(b, g.str()...)
			b = append(b, '"')
			b = g.space(b)
			b = append(b, ':')
			b = g.docValue(b, depth-1)
		}
		b = append(b, '}')
	case k <= 10 && depth > 0:
		b = append(b, '[')
		for i, n := 0, g.intn(4); i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = g.docValue(b, depth-1)
		}
		b = append(b, ']')
	default:
		b = append(b, g.bytes(3)...)
	}
	return g.space(b)
}

// The fuzzed Go types cover encoding/json's field rules: tag names,
// omitempty, "-", embedded structs under the dominance rule, nil
// embedded pointers, marshalers with value and pointer receivers, and
// addressability.
type (
	fzLeaf struct {
		A     int            `json:"a"`
		B     string         `json:"b,omitempty"`
		C     *float64       `json:"c,omitempty"`
		D     any            `json:"d"`
		E     []byte         `json:"e,omitempty"`
		F     map[string]int `json:"f,omitempty"`
		G     [2]uint8       `json:"g"`
		H     float32
		I     json.Number     `json:",omitempty"`
		J     json.RawMessage `json:"j,omitempty"`
		K     uint16          `json:"k,omitempty"`
		L     []string        `json:"l"`
		Punct int             `json:"a b<>&"`
		Uni   bool            `json:"日本,omitempty"`
		Bad   int             `json:"b\\d"`
		Skip  int             `json:"-"`
		Dash  int             `json:"-,"`
		Iface any             `json:"iface,omitempty"`
		Ptr   *int            `json:"ptr"`
		low   int
	}
	fzBase struct {
		X int
		Y string `json:"y"`
		Z bool
	}
	fzOther struct {
		X int
		Z bool `json:"Z"`
		W []int
	}
	fzNum   int
	fzOuter struct {
		fzBase
		*fzOther
		fzNum
		Y     int                `json:"Y"`
		Inner fzLeaf             `json:"inner"`
		Named fzBase             `json:"named"`
		P     *fzLeaf            `json:"p,omitempty"`
		S     []fzBase           `json:"s"`
		M     map[string]*fzBase `json:"m"`
	}
	fzTagged struct {
		fzBase `json:"base"`
		Q      int8
	}
	fzA     struct{ fzBase }
	fzB     struct{ fzBase }
	fzTwice struct {
		fzA
		fzB
		T string
	}
	fzDeep struct {
		fzOuter
		X string
	}
	fzValMarsh struct{ Doc json.RawMessage }
	fzPtrMarsh struct{ N int8 }
	fzHolder   struct {
		V  fzPtrMarsh
		P  *fzPtrMarsh
		A  [2]fzPtrMarsh
		VM fzValMarsh `json:"vm"`
		Jm json.Marshaler
	}
	fzChan struct{ C chan int }
)

func (m fzValMarsh) MarshalJSON() ([]byte, error) {
	if m.Doc == nil {
		return nil, errors.New("no document")
	}
	return m.Doc, nil
}

func (m *fzPtrMarsh) MarshalJSON() ([]byte, error) {
	if m == nil { // a nil *fzPtrMarsh held in a json.Marshaler
		return []byte("null"), nil
	}
	return []byte(fmt.Sprintf(`{ "z": %d, "a" : [1, 2.50], "z": "last %d" }`, m.N, m.N)), nil
}

var fuzzTypes = []reflect.Type{
	reflect.TypeFor[any](), reflect.TypeFor[fzLeaf](), reflect.TypeFor[fzOuter](), reflect.TypeFor[fzTagged](),
	reflect.TypeFor[fzTwice](), reflect.TypeFor[fzDeep](), reflect.TypeFor[fzValMarsh](), reflect.TypeFor[fzPtrMarsh](),
	reflect.TypeFor[*fzPtrMarsh](), reflect.TypeFor[fzHolder](), reflect.TypeFor[[]fzPtrMarsh](),
	reflect.TypeFor[map[string]fzPtrMarsh](), reflect.TypeFor[[2]fzPtrMarsh](), reflect.TypeFor[map[string]any](),
	reflect.TypeFor[map[int]any](), reflect.TypeFor[map[uint8]string](), reflect.TypeFor[map[int16]float64](),
	reflect.TypeFor[[]any](), reflect.TypeFor[[3]any](), reflect.TypeFor[*any](), reflect.TypeFor[json.Number](),
	reflect.TypeFor[json.RawMessage](), reflect.TypeFor[float32](), reflect.TypeFor[float64](), reflect.TypeFor[string](),
	reflect.TypeFor[[]byte](), reflect.TypeFor[int64](), reflect.TypeFor[uint64](), reflect.TypeFor[bool](),
	reflect.TypeFor[map[bool]int](), reflect.TypeFor[fzChan](), reflect.TypeFor[complex64](),
}

// top generates a value of one of fuzzTypes, passed either by value or
// behind a pointer, which makes its fields addressable.
func (g *gen) top() any {
	p := reflect.New(fuzzTypes[g.intn(len(fuzzTypes))])
	g.fill(p.Elem(), 3)
	if g.intn(2) == 0 {
		return p.Interface()
	}
	return p.Elem().Interface()
}

// fill sets v, which is settable, to a generated value.
func (g *gen) fill(v reflect.Value, depth int) {
	t := v.Type()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(g.intn(2) == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(g.u64()) >> g.intn(64))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(g.u64() >> g.intn(64))
	case reflect.Float32:
		v.SetFloat(float64(g.float32()))
	case reflect.Float64:
		v.SetFloat(g.float64())
	case reflect.Complex64, reflect.Complex128:
		v.SetComplex(complex(g.float64(), 0))
	case reflect.String:
		if t == numberType {
			v.SetString(g.number())
		} else {
			v.SetString(string(g.bytes(8)))
		}
	case reflect.Slice:
		switch {
		case g.intn(4) == 0:
			return // nil
		case t == rawMessageType:
			if g.intn(3) == 0 {
				v.SetBytes(g.bytes(6))
			} else {
				v.SetBytes(g.doc(depth))
			}
			return
		case t.Elem().Kind() == reflect.Uint8:
			v.SetBytes(append([]byte{}, g.bytes(6)...))
			return
		}
		n := 0
		if depth > 0 {
			n = g.intn(4)
		}
		v.Set(reflect.MakeSlice(t, n, n))
		for i := 0; i < n; i++ {
			g.fill(v.Index(i), depth-1)
		}
	case reflect.Array:
		if depth > 0 {
			for i := 0; i < v.Len(); i++ {
				g.fill(v.Index(i), depth-1)
			}
		}
	case reflect.Map:
		if g.intn(4) == 0 {
			return // nil
		}
		v.Set(reflect.MakeMap(t))
		if depth <= 0 {
			return
		}
		for n := g.intn(5); n > 0; n-- {
			k := reflect.New(t.Key()).Elem()
			g.fill(k, depth-1)
			e := reflect.New(t.Elem()).Elem()
			g.fill(e, depth-1)
			v.SetMapIndex(k, e)
		}
	case reflect.Pointer:
		if depth > 0 && g.intn(4) != 0 {
			p := reflect.New(t.Elem())
			g.fill(p.Elem(), depth-1)
			v.Set(p)
		}
	case reflect.Interface:
		if depth <= 0 || g.intn(4) == 0 {
			return // nil
		}
		ft := fuzzTypes[g.intn(len(fuzzTypes))]
		if !ft.Implements(t) {
			return
		}
		e := reflect.New(ft).Elem()
		g.fill(e, depth-1)
		v.Set(e)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				g.fill(f, depth)
			}
		}
	}
}
