package cjson

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with the minimal escape set
// (quote, backslash, control bytes), leaving all other bytes —
// including multi-byte UTF-8 like the march notation arrows — as-is.
// Each byte that is not valid UTF-8 becomes U+FFFD, as encoding/json
// writes it. encoding/json also escapes <, > and & for HTML safety;
// canonical form does not, so the encoding is a pure function of the
// string value.
func appendString[S string | []byte](b []byte, s S) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		n := len(s) - i
		if n > utf8.UTFMax {
			n = utf8.UTFMax
		}
		r, size := utf8.DecodeRune([]byte(s[i : i+n]))
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, "\ufffd"...)
			i++
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// numberEnd returns the index just past the JSON number literal that
// starts at s[i], or -1 if no valid literal starts there.
func numberEnd[S string | []byte](s S, i int) int {
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i >= len(s):
		return -1
	case s[i] == '0':
		i++
	case '1' <= s[i] && s[i] <= '9':
		i = digitsEnd(s, i+1)
	default:
		return -1
	}
	if i < len(s) && s[i] == '.' {
		if i+1 >= len(s) || !isDigit(s[i+1]) {
			return -1
		}
		i = digitsEnd(s, i+1)
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i >= len(s) || !isDigit(s[i]) {
			return -1
		}
		i = digitsEnd(s, i)
	}
	return i
}

func digitsEnd[S string | []byte](s S, i int) int {
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// appendNumber appends the canonical form of a valid JSON number
// literal: integers that fit an int64 or uint64 pass through (−0
// becomes 0), other literals are reformatted in shortest round-trip
// 'g' form so 1.50, 1.5e0 and 1.5 all canonicalise to "1.5". A literal
// out of float64 range is kept verbatim — it is still a fixed function
// of the input bytes.
func appendNumber[S string | []byte](b []byte, lit S) []byte {
	if isInteger(lit) {
		digits := len(lit)
		if lit[0] == '-' {
			digits--
		}
		if digits <= 18 { // fits an int64, so it is its own canonical form
			if len(lit) == 2 && lit[0] == '-' && lit[1] == '0' {
				return append(b, '0')
			}
			return append(b, lit...)
		}
		s := string(lit)
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return strconv.AppendInt(b, i, 10)
		}
		if u, err := strconv.ParseUint(s, 10, 64); err == nil {
			return strconv.AppendUint(b, u, 10)
		}
	}
	s := string(lit)
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return strconv.AppendFloat(b, f, 'g', -1, 64)
	}
	return append(b, s...)
}

// isInteger reports whether a valid literal has neither a fraction nor
// an exponent.
func isInteger[S string | []byte](lit S) bool {
	for i := 0; i < len(lit); i++ {
		if c := lit[i]; c == '.' || c == 'e' || c == 'E' {
			return false
		}
	}
	return true
}

// appendFloat appends a finite float as encoding/json writes it and
// appendNumber then reads it back: encoding/json spells an integral
// value below 1e21 as its shortest digits, zero-padded, and that
// spelling survives when it fits an int64 or uint64; every other value
// ends up in shortest 'g' form at its own bit size.
func appendFloat(b []byte, f float64, bits int) []byte {
	if f == 0 {
		return append(b, '0') // also −0
	}
	if abs := math.Abs(f); abs < 1e21 && f == math.Trunc(f) {
		// Up to 2^mantissa+1 the shortest digits are the integer itself.
		exact := float64(1 << 53)
		if bits == 32 {
			exact = 1 << 24
		}
		if abs <= exact {
			return strconv.AppendInt(b, int64(f), 10)
		}
		start := len(b)
		b = strconv.AppendFloat(b, f, 'f', -1, bits)
		if fitsInteger(b[start:]) {
			return b
		}
		b = b[:start]
	}
	return strconv.AppendFloat(b, f, 'g', -1, bits)
}

// fitsInteger reports whether a decimal integer literal fits an int64
// (when negative) or a uint64.
func fitsInteger(s []byte) bool {
	if s[0] == '-' {
		d := s[1:]
		return len(d) < 19 || len(d) == 19 && string(d) <= "9223372036854775808"
	}
	return len(s) < 20 || len(s) == 20 && string(s) <= "18446744073709551615"
}
