package cjson

import (
	"cmp"
	"encoding"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// encoderFunc appends the canonical form of v, a value of the type it
// was built for.
type encoderFunc func(e *encoder, v reflect.Value) error

var (
	marshalerType     = reflect.TypeFor[json.Marshaler]()
	textMarshalerType = reflect.TypeFor[encoding.TextMarshaler]()
	rawMessageType    = reflect.TypeFor[json.RawMessage]()
	numberType        = reflect.TypeFor[json.Number]()
)

// startDetectingCyclesAfter is the pointer, map and slice nesting past
// which encoders look for reference cycles, as in encoding/json.
const startDetectingCyclesAfter = 1000

func (e *encoder) value(v reflect.Value) error {
	if !v.IsValid() {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	return typeEncoder(v.Type())(e, v)
}

// encoders caches one encoderFunc per type.
var encoders sync.Map // map[reflect.Type]encoderFunc

func typeEncoder(t reflect.Type) encoderFunc {
	if f, ok := encoders.Load(t); ok {
		return f.(encoderFunc)
	}
	// A recursive type reaches itself while its encoder is being
	// built. Publish a forwarder first that waits for the real one.
	var (
		ready sync.WaitGroup
		f     encoderFunc
	)
	ready.Add(1)
	fwd, loaded := encoders.LoadOrStore(t, encoderFunc(func(e *encoder, v reflect.Value) error {
		ready.Wait()
		return f(e, v)
	}))
	if loaded {
		return fwd.(encoderFunc)
	}
	f = newTypeEncoder(t, true)
	ready.Done()
	encoders.Store(t, f)
	return f
}

// newTypeEncoder follows encoding/json's choice of encoder. allowAddr
// lets a value whose pointer implements json.Marshaler use it when the
// value is addressable.
func newTypeEncoder(t reflect.Type, allowAddr bool) encoderFunc {
	if t == rawMessageType {
		return rawMessageEncoder
	}
	if t.Kind() != reflect.Pointer && allowAddr && reflect.PointerTo(t).Implements(marshalerType) {
		return condAddrEncoder(addrMarshalerEncoder, newTypeEncoder(t, false))
	}
	if t.Implements(marshalerType) {
		return marshalerEncoder
	}
	if t.Implements(textMarshalerType) || reflect.PointerTo(t).Implements(textMarshalerType) {
		return errorEncoder(fmt.Errorf("cjson: %v implements encoding.TextMarshaler, which canonical JSON does not encode", t))
	}
	switch t.Kind() {
	case reflect.Bool:
		return boolEncoder
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return intEncoder
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return uintEncoder
	case reflect.Float32:
		return float32Encoder
	case reflect.Float64:
		return float64Encoder
	case reflect.String:
		if t == numberType {
			return numberEncoder
		}
		return stringEncoder
	case reflect.Interface:
		return interfaceEncoder
	case reflect.Struct:
		return newStructEncoder(t)
	case reflect.Map:
		return newMapEncoder(t)
	case reflect.Slice:
		return newSliceEncoder(t)
	case reflect.Array:
		return arrayEncoder{typeEncoder(t.Elem())}.encode
	case reflect.Pointer:
		return ptrEncoder{typeEncoder(t.Elem())}.encode
	}
	return errorEncoder(fmt.Errorf("cjson: %w", &json.UnsupportedTypeError{Type: t}))
}

func errorEncoder(err error) encoderFunc {
	return func(*encoder, reflect.Value) error { return err }
}

func condAddrEncoder(addr, other encoderFunc) encoderFunc {
	return func(e *encoder, v reflect.Value) error {
		if v.CanAddr() {
			return addr(e, v)
		}
		return other(e, v)
	}
}

func rawMessageEncoder(e *encoder, v reflect.Value) error {
	if v.IsNil() {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	if err := e.raw(v.Bytes()); err != nil {
		return marshalerError(v.Type(), err)
	}
	return nil
}

func marshalerEncoder(e *encoder, v reflect.Value) error {
	if v.Kind() == reflect.Pointer && v.IsNil() {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	m, ok := v.Interface().(json.Marshaler)
	if !ok {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	return e.marshalJSON(v.Type(), m)
}

func addrMarshalerEncoder(e *encoder, v reflect.Value) error {
	return e.marshalJSON(v.Type(), v.Addr().Interface().(json.Marshaler))
}

func (e *encoder) marshalJSON(t reflect.Type, m json.Marshaler) error {
	b, err := m.MarshalJSON()
	if err == nil {
		err = e.raw(b)
	}
	if err != nil {
		return marshalerError(t, err)
	}
	return nil
}

func marshalerError(t reflect.Type, err error) error {
	return fmt.Errorf("cjson: %w", &json.MarshalerError{Type: t, Err: err})
}

func boolEncoder(e *encoder, v reflect.Value) error {
	e.buf = strconv.AppendBool(e.buf, v.Bool())
	return nil
}

func intEncoder(e *encoder, v reflect.Value) error {
	e.buf = strconv.AppendInt(e.buf, v.Int(), 10)
	return nil
}

func uintEncoder(e *encoder, v reflect.Value) error {
	e.buf = strconv.AppendUint(e.buf, v.Uint(), 10)
	return nil
}

func float32Encoder(e *encoder, v reflect.Value) error { return e.float(v, 32) }
func float64Encoder(e *encoder, v reflect.Value) error { return e.float(v, 64) }

func (e *encoder) float(v reflect.Value, bits int) error {
	f := v.Float()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("cjson: %w", &json.UnsupportedValueError{Value: v, Str: strconv.FormatFloat(f, 'g', -1, bits)})
	}
	e.buf = appendFloat(e.buf, f, bits)
	return nil
}

func numberEncoder(e *encoder, v reflect.Value) error {
	n := v.String()
	if n == "" {
		n = "0" // encoding/json writes the zero Number as 0
	}
	if numberEnd(n, 0) != len(n) {
		return fmt.Errorf("cjson: invalid number literal %q", n)
	}
	e.buf = appendNumber(e.buf, n)
	return nil
}

func stringEncoder(e *encoder, v reflect.Value) error {
	e.buf = appendString(e.buf, v.String())
	return nil
}

func interfaceEncoder(e *encoder, v reflect.Value) error {
	if v.IsNil() {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	return e.value(v.Elem())
}

// guard runs enc for a pointer, map or slice nested past
// startDetectingCyclesAfter levels, failing if key is already being
// encoded further up.
func (e *encoder) guard(v reflect.Value, key any, enc func() error) error {
	if _, ok := e.ptrSeen[key]; ok {
		return fmt.Errorf("cjson: %w", &json.UnsupportedValueError{Value: v, Str: "encountered a cycle via " + v.Type().String()})
	}
	if e.ptrSeen == nil {
		e.ptrSeen = make(map[any]struct{})
	}
	e.ptrSeen[key] = struct{}{}
	err := enc()
	delete(e.ptrSeen, key)
	e.ptrLevel--
	return err
}

type ptrEncoder struct{ elem encoderFunc }

func (pe ptrEncoder) encode(e *encoder, v reflect.Value) error {
	if v.IsNil() {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	if e.ptrLevel++; e.ptrLevel > startDetectingCyclesAfter {
		return e.guard(v, v.Interface(), func() error { return pe.elem(e, v.Elem()) })
	}
	err := pe.elem(e, v.Elem())
	e.ptrLevel--
	return err
}

func newSliceEncoder(t reflect.Type) encoderFunc {
	// []byte is base64 unless its element type marshals itself.
	if t.Elem().Kind() == reflect.Uint8 {
		p := reflect.PointerTo(t.Elem())
		if !p.Implements(marshalerType) && !p.Implements(textMarshalerType) {
			return byteSliceEncoder
		}
	}
	return sliceEncoder{arrayEncoder{typeEncoder(t.Elem())}.encode}.encode
}

func byteSliceEncoder(e *encoder, v reflect.Value) error {
	if v.IsNil() {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	e.buf = append(e.buf, '"')
	e.buf = base64.StdEncoding.AppendEncode(e.buf, v.Bytes())
	e.buf = append(e.buf, '"')
	return nil
}

type sliceEncoder struct{ array encoderFunc }

func (se sliceEncoder) encode(e *encoder, v reflect.Value) error {
	if v.IsNil() {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	if e.ptrLevel++; e.ptrLevel > startDetectingCyclesAfter {
		key := struct {
			ptr any
			len int
		}{v.UnsafePointer(), v.Len()}
		return e.guard(v, key, func() error { return se.array(e, v) })
	}
	err := se.array(e, v)
	e.ptrLevel--
	return err
}

type arrayEncoder struct{ elem encoderFunc }

func (ae arrayEncoder) encode(e *encoder, v reflect.Value) error {
	if err := e.open(); err != nil {
		return err
	}
	n := v.Len()
	if n == 0 {
		e.depth--
		e.buf = append(e.buf, "[]"...)
		return nil
	}
	e.buf = append(e.buf, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.newline()
		if err := ae.elem(e, v.Index(i)); err != nil {
			return err
		}
	}
	e.depth--
	e.newline()
	e.buf = append(e.buf, ']')
	return nil
}

// mapEntry is one map member awaiting its sorted position: key is its
// JSON key as the canonical form reads it back, raw the Go key.
type mapEntry struct {
	key, raw string
	val      reflect.Value
}

type mapEncoder struct {
	elem encoderFunc
}

func newMapEncoder(t reflect.Type) encoderFunc {
	kt := t.Key()
	if kt.Kind() != reflect.String && kt.Implements(textMarshalerType) {
		return errorEncoder(fmt.Errorf("cjson: map key type %v implements encoding.TextMarshaler, which canonical JSON does not encode", kt))
	}
	switch kt.Kind() {
	case reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return mapEncoder{typeEncoder(t.Elem())}.encode
	}
	return errorEncoder(fmt.Errorf("cjson: %w", &json.UnsupportedTypeError{Type: t}))
}

func (me mapEncoder) encode(e *encoder, v reflect.Value) error {
	if v.IsNil() {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	if e.ptrLevel++; e.ptrLevel > startDetectingCyclesAfter {
		return e.guard(v, v.UnsafePointer(), func() error { return me.members(e, v) })
	}
	err := me.members(e, v)
	e.ptrLevel--
	return err
}

func (me mapEncoder) members(e *encoder, v reflect.Value) error {
	if err := e.open(); err != nil {
		return err
	}
	if v.Len() == 0 {
		e.depth--
		e.buf = append(e.buf, "{}"...)
		return nil
	}
	base := len(e.entries)
	k := reflect.New(v.Type().Key()).Elem()
	it := v.MapRange()
	for it.Next() {
		k.SetIterKey(it)
		var key string
		switch k.Kind() {
		case reflect.String:
			key = k.String()
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			key = strconv.FormatInt(k.Int(), 10)
		default:
			key = strconv.FormatUint(k.Uint(), 10)
		}
		// Keys that are not valid UTF-8 read back with U+FFFD, so
		// distinct Go keys can meet as one JSON key; the one written
		// last, the largest Go key, is the member that survives.
		read := key
		if !utf8.ValidString(key) {
			read = string(appendValidUTF8(nil, key))
		}
		e.entries = append(e.entries, mapEntry{key: read, raw: key, val: it.Value()})
	}
	slices.SortFunc(e.entries[base:], func(a, b mapEntry) int {
		if c := strings.Compare(a.key, b.key); c != 0 {
			return c
		}
		return strings.Compare(a.raw, b.raw)
	})
	e.buf = append(e.buf, '{')
	top := len(e.entries)
	written := 0
	for i := base; i < top; i++ {
		en := e.entries[i]
		if i+1 < top && e.entries[i+1].key == en.key {
			// Shadowed: encode it for its errors only.
			mark := len(e.buf)
			if err := me.elem(e, en.val); err != nil {
				return err
			}
			e.buf = e.buf[:mark]
			continue
		}
		if written > 0 {
			e.buf = append(e.buf, ',')
		}
		written++
		e.newline()
		e.buf = appendString(e.buf, en.key)
		e.colon()
		if err := me.elem(e, en.val); err != nil {
			return err
		}
	}
	clear(e.entries[base:top])
	e.entries = e.entries[:base]
	e.depth--
	e.newline()
	e.buf = append(e.buf, '}')
	return nil
}

// appendValidUTF8 appends s with each invalid UTF-8 byte replaced by
// U+FFFD.
func appendValidUTF8(b []byte, s string) []byte {
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, "\ufffd"...)
		} else {
			b = append(b, s[i:i+size]...)
		}
		i += size
	}
	return b
}

// field is one JSON member of a struct type.
type field struct {
	name string
	// key is the canonical "name" of the member.
	key       []byte
	index     []int
	tagged    bool
	omitEmpty bool
	enc       encoderFunc
}

type structEncoder struct {
	fields []field // in canonical order: by name
}

func newStructEncoder(t reflect.Type) encoderFunc {
	fields, err := typeFields(t)
	if err != nil {
		return errorEncoder(err)
	}
	return structEncoder{fields}.encode
}

func (se structEncoder) encode(e *encoder, v reflect.Value) error {
	if err := e.open(); err != nil {
		return err
	}
	start := len(e.buf)
	e.buf = append(e.buf, '{')
	written := 0
fields:
	for i := range se.fields {
		f := &se.fields[i]
		fv := v.Field(f.index[0])
		for _, x := range f.index[1:] {
			if fv.Kind() == reflect.Pointer {
				if fv.IsNil() {
					continue fields // behind a nil embedded pointer
				}
				fv = fv.Elem()
			}
			fv = fv.Field(x)
		}
		if f.omitEmpty && isEmptyValue(fv) {
			continue
		}
		if written > 0 {
			e.buf = append(e.buf, ',')
		}
		written++
		e.newline()
		e.buf = append(e.buf, f.key...)
		e.colon()
		if err := f.enc(e, fv); err != nil {
			return err
		}
	}
	e.depth--
	if written == 0 {
		e.buf = append(e.buf[:start], "{}"...)
		return nil
	}
	e.newline()
	e.buf = append(e.buf, '}')
	return nil
}

func isEmptyValue(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Array, reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64,
		reflect.Interface, reflect.Pointer:
		return v.IsZero()
	}
	return false
}

// typeFields lists the JSON members of struct type t by encoding/json's
// rules — exported fields, tag names, "-", and the fields of embedded
// structs under Go's dominance rule — sorted by name.
func typeFields(t reflect.Type) ([]field, error) {
	type embedded struct {
		typ   reflect.Type
		index []int
	}
	var (
		fields        []field
		current, next = []embedded{}, []embedded{{typ: t}}
		count         map[reflect.Type]int
		nextCount     map[reflect.Type]int
		visited       = map[reflect.Type]bool{}
	)
	// Breadth-first over the struct and the structs it embeds, so a
	// shallower field is found before a deeper one of the same name.
	for len(next) > 0 {
		current, next = next, current[:0]
		count, nextCount = nextCount, map[reflect.Type]int{}
		for _, s := range current {
			if visited[s.typ] {
				continue
			}
			visited[s.typ] = true
			for i := 0; i < s.typ.NumField(); i++ {
				sf := s.typ.Field(i)
				if sf.Anonymous {
					et := sf.Type
					if et.Kind() == reflect.Pointer {
						et = et.Elem()
					}
					if !sf.IsExported() && et.Kind() != reflect.Struct {
						continue
					}
				} else if !sf.IsExported() {
					continue
				}
				tag := sf.Tag.Get("json")
				if tag == "-" {
					continue
				}
				name, opts, _ := strings.Cut(tag, ",")
				if !isValidTag(name) {
					name = ""
				}
				index := append(s.index[:len(s.index):len(s.index)], i)
				ft := sf.Type
				if ft.Name() == "" && ft.Kind() == reflect.Pointer {
					ft = ft.Elem()
				}
				if name == "" && sf.Anonymous && ft.Kind() == reflect.Struct {
					// An untagged embedded struct: its fields are
					// explored one level down.
					nextCount[ft]++
					if nextCount[ft] == 1 {
						next = append(next, embedded{typ: ft, index: index})
					}
					continue
				}
				if hasOption(opts, "omitzero") {
					return nil, fmt.Errorf("cjson: %v.%s: the omitzero option is not supported", t, sf.Name)
				}
				if hasOption(opts, "string") && quotable(ft.Kind()) {
					return nil, fmt.Errorf("cjson: %v.%s: the string option is not supported", t, sf.Name)
				}
				f := field{name: name, tagged: name != "", index: index, omitEmpty: hasOption(opts, "omitempty")}
				if f.name == "" {
					f.name = sf.Name
				}
				fields = append(fields, f)
				if count[s.typ] > 1 {
					// The struct is embedded more than once at this
					// depth: a second copy makes the name ambiguous.
					fields = append(fields, f)
				}
			}
		}
	}

	// Of the fields sharing a name, the shallowest wins, then a tagged
	// one; a tie at the top hides them all.
	slices.SortFunc(fields, func(a, b field) int {
		if c := strings.Compare(a.name, b.name); c != 0 {
			return c
		}
		if c := cmp.Compare(len(a.index), len(b.index)); c != 0 {
			return c
		}
		if a.tagged != b.tagged {
			if a.tagged {
				return -1
			}
			return 1
		}
		return slices.Compare(a.index, b.index)
	})
	out := fields[:0]
	for i := 0; i < len(fields); {
		j := i + 1
		for j < len(fields) && fields[j].name == fields[i].name {
			j++
		}
		if j-i == 1 || len(fields[i].index) != len(fields[i+1].index) || fields[i].tagged != fields[i+1].tagged {
			out = append(out, fields[i])
		}
		i = j
	}
	for i := range out {
		f := &out[i]
		f.key = appendString(nil, f.name)
		f.enc = typeEncoder(typeByIndex(t, f.index))
	}
	return out, nil
}

func typeByIndex(t reflect.Type, index []int) reflect.Type {
	for _, i := range index {
		if t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		t = t.Field(i).Type
	}
	return t
}

func hasOption(opts, name string) bool {
	for opts != "" {
		var o string
		o, opts, _ = strings.Cut(opts, ",")
		if o == name {
			return true
		}
	}
	return false
}

func quotable(k reflect.Kind) bool {
	switch k {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64,
		reflect.String:
		return true
	}
	return false
}

// isValidTag reports whether encoding/json accepts s as a tag name.
func isValidTag(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if !strings.ContainsRune("!#$%&()*+-./:;<=>?@[]^_{|}~ ", c) && !unicode.IsLetter(c) && !unicode.IsDigit(c) {
			return false
		}
	}
	return true
}
