package cjson

import (
	"bytes"
	"fmt"
	"slices"
	"unicode/utf16"
	"unicode/utf8"
)

// member is one member of a raw object being canonicalized: its
// decoded key is keys[keyOff:keyEnd], and its canonical "key":value
// bytes are buf[outOff:outEnd].
type member struct {
	keyOff, keyEnd int
	outOff, outEnd int
}

// raw appends the canonical form of the JSON document data, which must
// hold one value and nothing else but whitespace.
func (e *encoder) raw(data []byte) error {
	i, err := e.rawValue(data, 0)
	if err != nil {
		return err
	}
	if i = skipSpace(data, i); i < len(data) {
		return syntaxError(data, i, "after top-level value")
	}
	return nil
}

func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

func syntaxError(data []byte, i int, context string) error {
	if i >= len(data) {
		return fmt.Errorf("cjson: unexpected end of JSON input")
	}
	return fmt.Errorf("cjson: invalid character %q %s at offset %d", data[i], context, i)
}

// rawValue appends the canonical form of the value starting at or
// after data[i] and returns the index just past it.
func (e *encoder) rawValue(data []byte, i int) (int, error) {
	i = skipSpace(data, i)
	if i >= len(data) {
		return i, syntaxError(data, i, "")
	}
	switch c := data[i]; {
	case c == '{':
		return e.rawObject(data, i)
	case c == '[':
		return e.rawArray(data, i)
	case c == '"':
		return e.rawString(data, i)
	case c == '-' || isDigit(c):
		end := numberEnd(data, i)
		if end < 0 {
			return i, syntaxError(data, i, "in number")
		}
		e.buf = appendNumber(e.buf, data[i:end])
		return end, nil
	case c == 't':
		return e.rawLiteral(data, i, "true")
	case c == 'f':
		return e.rawLiteral(data, i, "false")
	case c == 'n':
		return e.rawLiteral(data, i, "null")
	}
	return i, syntaxError(data, i, "looking for beginning of value")
}

func (e *encoder) rawLiteral(data []byte, i int, lit string) (int, error) {
	if !bytes.HasPrefix(data[i:], []byte(lit)) {
		return i, syntaxError(data, i, "in literal")
	}
	e.buf = append(e.buf, lit...)
	return i + len(lit), nil
}

func (e *encoder) rawArray(data []byte, i int) (int, error) {
	if err := e.open(); err != nil {
		return i, err
	}
	if i = skipSpace(data, i+1); i < len(data) && data[i] == ']' {
		e.depth--
		e.buf = append(e.buf, "[]"...)
		return i + 1, nil
	}
	e.buf = append(e.buf, '[')
	for n := 0; ; n++ {
		if n > 0 {
			e.buf = append(e.buf, ',')
		}
		e.newline()
		var err error
		if i, err = e.rawValue(data, i); err != nil {
			return i, err
		}
		if i = skipSpace(data, i); i < len(data) && data[i] == ',' {
			i++
			continue
		}
		if i < len(data) && data[i] == ']' {
			break
		}
		return i, syntaxError(data, i, "after array element")
	}
	e.depth--
	e.newline()
	e.buf = append(e.buf, ']')
	return i + 1, nil
}

// rawObject emits the members in input order while their keys ascend,
// which is the common case for documents this package wrote. A key out
// of order, or repeated, leaves the object to be reordered once it is
// complete: its members' output is sorted by key, keeping the last of
// equal keys.
func (e *encoder) rawObject(data []byte, i int) (int, error) {
	if err := e.open(); err != nil {
		return i, err
	}
	if i = skipSpace(data, i+1); i < len(data) && data[i] == '}' {
		e.depth--
		e.buf = append(e.buf, "{}"...)
		return i + 1, nil
	}
	objOff := len(e.buf)
	e.buf = append(e.buf, '{')
	mBase, kBase := len(e.members), len(e.keys)
	sorted := true
	for {
		if i >= len(data) || data[i] != '"' {
			return i, syntaxError(data, i, "looking for beginning of object key string")
		}
		keyOff := len(e.keys)
		var plain []byte // the key as written, when that is canonical
		var err error
		if j := plainEnd(data, i); j >= 0 {
			plain = data[i : j+1]
			e.keys = append(e.keys, data[i+1:j]...)
			i = j + 1
		} else if e.keys, i, err = decodeString(e.keys, data, i); err != nil {
			return i, err
		}
		keyEnd := len(e.keys)
		if n := len(e.members); n > mBase {
			prev := e.members[n-1]
			if bytes.Compare(e.keys[prev.keyOff:prev.keyEnd], e.keys[keyOff:keyEnd]) >= 0 {
				sorted = false
			}
			e.buf = append(e.buf, ',')
		}
		if i = skipSpace(data, i); i >= len(data) || data[i] != ':' {
			return i, syntaxError(data, i, "after object key")
		}
		e.newline()
		outOff := len(e.buf)
		if plain != nil {
			e.buf = append(e.buf, plain...)
		} else {
			e.buf = appendString(e.buf, e.keys[keyOff:keyEnd])
		}
		e.colon()
		if i, err = e.rawValue(data, i+1); err != nil {
			return i, err
		}
		e.members = append(e.members, member{keyOff, keyEnd, outOff, len(e.buf)})
		if i = skipSpace(data, i); i < len(data) && data[i] == ',' {
			i = skipSpace(data, i+1)
			continue
		}
		if i < len(data) && data[i] == '}' {
			break
		}
		return i, syntaxError(data, i, "after object key:value pair")
	}
	if !sorted {
		e.reorder(objOff, e.members[mBase:])
	}
	e.members, e.keys = e.members[:mBase], e.keys[:kBase]
	e.depth--
	e.newline()
	e.buf = append(e.buf, '}')
	return i + 1, nil
}

// reorder rewrites the members of the object that starts at
// buf[objOff] in key order, dropping all but the last of equal keys.
func (e *encoder) reorder(objOff int, ms []member) {
	key := func(m member) []byte { return e.keys[m.keyOff:m.keyEnd] }
	slices.SortStableFunc(ms, func(a, b member) int { return bytes.Compare(key(a), key(b)) })
	e.scratch = append(e.scratch[:0], e.buf[objOff:]...)
	e.buf = e.buf[:objOff+1]
	written := 0
	for j, m := range ms {
		if j+1 < len(ms) && bytes.Equal(key(m), key(ms[j+1])) {
			continue
		}
		if written > 0 {
			e.buf = append(e.buf, ',')
		}
		written++
		e.newline()
		e.buf = append(e.buf, e.scratch[m.outOff-objOff:m.outEnd-objOff]...)
	}
}

// rawString appends the canonical form of the string starting at
// data[i].
func (e *encoder) rawString(data []byte, i int) (int, error) {
	if j := plainEnd(data, i); j >= 0 {
		e.buf = append(e.buf, data[i:j+1]...)
		return j + 1, nil
	}
	var err error
	if e.str, i, err = decodeString(e.str[:0], data, i); err != nil {
		return i, err
	}
	e.buf = appendString(e.buf, e.str)
	return i, nil
}

// plainEnd returns the index of the closing quote of the string that
// starts at data[i] if the string has no escapes, control bytes or
// invalid UTF-8, which makes it its own canonical form; otherwise -1.
func plainEnd(data []byte, i int) int {
	for j := i + 1; j < len(data); {
		c := data[j]
		switch {
		case c == '"':
			return j
		case c == '\\' || c < 0x20:
			return -1
		case c < utf8.RuneSelf:
			j++
		default:
			r, size := utf8.DecodeRune(data[j:])
			if r == utf8.RuneError && size == 1 {
				return -1
			}
			j += size
		}
	}
	return -1
}

// decodeString appends the value of the JSON string starting at
// data[i] to dst, as encoding/json decodes it: each invalid UTF-8 byte
// and each unpaired surrogate escape becomes U+FFFD. It returns the
// index just past the closing quote.
func decodeString(dst, data []byte, i int) ([]byte, int, error) {
	for i++; i < len(data); {
		c := data[i]
		switch {
		case c == '"':
			return dst, i + 1, nil
		case c == '\\':
			if i+1 >= len(data) {
				return dst, i, syntaxError(data, len(data), "")
			}
			switch esc := data[i+1]; esc {
			case '"', '\\', '/':
				dst = append(dst, esc)
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(data, i+2)
				if r < 0 {
					return dst, i, syntaxError(data, i, "in \\u hexadecimal character escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// Only a following low surrogate escape pairs with
					// it; anything else is left for the next round.
					r2 := rune(-1)
					if i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
						r2 = hex4(data, i+2)
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						r = dec
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default:
				return dst, i, syntaxError(data, i+1, "in string escape code")
			}
			i += 2
		case c < 0x20:
			return dst, i, syntaxError(data, i, "in string literal")
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				dst = append(dst, "\ufffd"...)
			} else {
				dst = append(dst, data[i:i+size]...)
			}
			i += size
		}
	}
	return dst, i, syntaxError(data, i, "")
}

// hex4 decodes the four hex digits at data[i:], or returns -1.
func hex4(data []byte, i int) rune {
	if i+4 > len(data) {
		return -1
	}
	var r rune
	for _, c := range data[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
