// Package cjson renders canonical JSON: a byte-deterministic encoding
// used wherever BISRAMGEN output is hashed, cached or compared —
// content-addressed cache keys (internal/canon), cached artifacts
// (internal/cache), response envelopes, and the datasheet.json the
// compiler emits.
//
// Marshal and MarshalIndent walk a value once with reflect and append
// canonical bytes to one buffer. Output from a json.Marshaler (the
// json.RawMessage reports that compile responses, sweep rows and
// metrics documents carry) goes through a byte-level canonicalizer,
// which Canonicalize also uses; it validates the document, sorts each
// object's members as it emits them and builds no tree.
//
// The output is what encoding/json would produce, decoded into
// map[string]any with UseNumber and re-encoded with sorted keys. So
// encoding/json's rules decide which values appear: exported fields,
// tag names, omitempty, "-", embedded structs under Go's dominance
// rule (nil embedded pointers are skipped), json.Marshaler, []byte as
// base64, nil slices and maps as null. On top of that:
//
//   - Object keys are in ascending byte order at every level: struct
//     fields sort by JSON name, integer map keys by their decimal
//     string (so "10" sorts before "2"). Within marshaler output the
//     last of two equal keys wins.
//   - Numbers have one spelling. NaN and ±Inf are errors and −0 is 0.
//     Integral floats up to 2^53 are exact; larger integral floats
//     below 1e21 keep encoding/json's zero-padded shortest digits when
//     those fit an int64 or uint64 (2^60 is 1152921504606847000);
//     every other float uses the shortest 'g' form (1e20 is 1e+20,
//     1e-7 is 1e-07), with a float32 formatted at 32 bits. A number
//     literal from marshaler output or Canonicalize stays an integer
//     when it parses as an int64 or uint64 and is otherwise
//     reformatted in shortest 'g' form, so 1.50, 1.5e0 and 1.5 all
//     become 1.5; a literal beyond float64 range is kept verbatim.
//   - Strings escape only '"', '\\', \n, \r, \t and other bytes below
//     0x20 (as \u00xx, in lowercase hex). Each invalid UTF-8 byte, and
//     each lone surrogate escape, becomes U+FFFD; '<', '>', '&' and
//     U+2028/2029 stay raw.
//   - Marshal adds no whitespace. MarshalIndent indents with two
//     spaces, writes ": " after keys, keeps empty containers as [] and
//     {}, and ends with a newline.
//
// Two byte-equal canonical documents therefore denote equal values,
// and equal values always canonicalise to byte-equal documents — the
// property SHA-256 content addressing needs. Encoding/json features no
// marshalled type uses (encoding.TextMarshaler and the ",string" and
// ",omitzero" options) are errors naming the type.
package cjson

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
)

// maxDepth bounds object and array nesting, as encoding/json's
// decoder does.
const maxDepth = 10000

// maxPooled caps the buffer bytes a pooled encoder keeps between
// calls, so one huge document does not stay resident.
const maxPooled = 1 << 20

var errDepth = errors.New("cjson: exceeded max nesting depth")

// Marshal renders v as compact canonical JSON.
func Marshal(v any) ([]byte, error) {
	return marshal(v, false)
}

// MarshalIndent renders v as canonical JSON indented with two spaces
// and terminated by a newline — the human-facing variant used for
// datasheet.json files and response envelopes.
func MarshalIndent(v any) ([]byte, error) {
	return marshal(v, true)
}

func marshal(v any, indent bool) ([]byte, error) {
	e := getEncoder(indent)
	defer putEncoder(e)
	if err := e.value(reflect.ValueOf(v)); err != nil {
		return nil, err
	}
	if indent {
		e.buf = append(e.buf, '\n')
	}
	return bytes.Clone(e.buf), nil
}

// Canonicalize re-encodes raw JSON text into compact canonical form.
// It is how foreign documents (user-POSTed requests, stored artifacts)
// are normalised before hashing or comparison. Only whitespace may
// follow the value.
func Canonicalize(raw []byte) ([]byte, error) {
	e := getEncoder(false)
	defer putEncoder(e)
	if err := e.raw(raw); err != nil {
		return nil, err
	}
	return bytes.Clone(e.buf), nil
}

// encoder is the state of one Marshal, MarshalIndent or Canonicalize
// call. Encoders are pooled; the slices below are reused as stacks.
type encoder struct {
	buf    []byte
	indent bool
	// depth is the current object/array nesting.
	depth int

	// ptrLevel and ptrSeen detect reference cycles the way
	// encoding/json does: only past startDetectingCyclesAfter nested
	// pointers, maps or slices.
	ptrLevel int
	ptrSeen  map[any]struct{}

	// entries holds the members of the maps being encoded.
	entries []mapEntry
	// members and keys hold the members and decoded keys of the raw
	// objects being canonicalized.
	members []member
	keys    []byte
	// str holds a decoded raw string; scratch holds an object's
	// members while they are reordered.
	str     []byte
	scratch []byte
}

var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

func getEncoder(indent bool) *encoder {
	e := encoderPool.Get().(*encoder)
	e.indent = indent
	return e
}

func putEncoder(e *encoder) {
	if cap(e.buf)+cap(e.keys)+cap(e.str)+cap(e.scratch) > maxPooled {
		return
	}
	e.buf = e.buf[:0]
	e.depth, e.ptrLevel = 0, 0
	clear(e.ptrSeen)
	clear(e.entries[:cap(e.entries)])
	e.entries = e.entries[:0]
	e.members, e.keys = e.members[:0], e.keys[:0]
	encoderPool.Put(e)
}

// open enters an object or array.
func (e *encoder) open() error {
	e.depth++
	if e.depth > maxDepth {
		return errDepth
	}
	return nil
}

// newline starts a new line at the current depth in indented output.
func (e *encoder) newline() {
	if !e.indent {
		return
	}
	e.buf = append(e.buf, '\n')
	for i := 0; i < e.depth; i++ {
		e.buf = append(e.buf, ' ', ' ')
	}
}

// colon ends an object key.
func (e *encoder) colon() {
	if e.indent {
		e.buf = append(e.buf, ':', ' ')
	} else {
		e.buf = append(e.buf, ':')
	}
}
