package cjson

// This file keeps the canonical encoder this package used before the
// one-pass encoder: a json.Marshal, a decode into map[string]any with
// UseNumber, and a sorted re-encode of that tree. It is the oracle the
// differential tests and FuzzCanonicalDifferential compare the
// production encoder against, byte for byte and error for error.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// refMarshal renders v as compact canonical JSON.
func refMarshal(v any) ([]byte, error) {
	tree, err := refToTree(v)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	refWriteCanonical(&b, tree, "", "")
	return b.Bytes(), nil
}

// refMarshalIndent renders v as canonical JSON indented with two spaces
// and terminated by a newline — the human-facing variant used for
// datasheet.json files.
func refMarshalIndent(v any) ([]byte, error) {
	tree, err := refToTree(v)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	refWriteCanonical(&b, tree, "", "  ")
	b.WriteByte('\n')
	return b.Bytes(), nil
}

// refCanonicalize re-encodes raw JSON text into compact canonical form.
// It is how foreign documents (user-POSTed requests, stored artifacts)
// are normalised before hashing or comparison.
func refCanonicalize(raw []byte) ([]byte, error) {
	var v any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("cjson: %w", err)
	}
	// Reject anything but whitespace after the first value.
	if len(bytes.TrimLeft(raw[dec.InputOffset():], " \t\r\n")) != 0 {
		return nil, fmt.Errorf("cjson: trailing data after JSON value")
	}
	var b bytes.Buffer
	refWriteCanonical(&b, v, "", "")
	return b.Bytes(), nil
}

// refToTree lowers an arbitrary Go value to the generic JSON tree
// (map[string]any / []any / json.Number / string / bool / nil) by a
// round trip through encoding/json with UseNumber, so struct tags,
// omitempty and MarshalJSON implementations all apply exactly as they
// would in a plain json.Marshal call.
func refToTree(v any) (any, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("cjson: %w", err)
	}
	var tree any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&tree); err != nil {
		return nil, fmt.Errorf("cjson: %w", err)
	}
	return tree, nil
}

// refWriteCanonical emits the tree. indent == "" selects compact form.
func refWriteCanonical(b *bytes.Buffer, v any, prefix, indent string) {
	switch t := v.(type) {
	case nil:
		b.WriteString("null")
	case bool:
		if t {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case string:
		refWriteString(b, t)
	case json.Number:
		refWriteNumber(b, t)
	case float64:
		// Only reachable when a caller hands a pre-decoded tree that
		// skipped UseNumber; format deterministically all the same.
		b.WriteString(strconv.FormatFloat(t, 'g', -1, 64))
	case []any:
		if len(t) == 0 {
			b.WriteString("[]")
			return
		}
		b.WriteByte('[')
		inner := prefix + indent
		for i, e := range t {
			if i > 0 {
				b.WriteByte(',')
			}
			if indent != "" {
				b.WriteByte('\n')
				b.WriteString(inner)
			}
			refWriteCanonical(b, e, inner, indent)
		}
		if indent != "" {
			b.WriteByte('\n')
			b.WriteString(prefix)
		}
		b.WriteByte(']')
	case map[string]any:
		if len(t) == 0 {
			b.WriteString("{}")
			return
		}
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('{')
		inner := prefix + indent
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			if indent != "" {
				b.WriteByte('\n')
				b.WriteString(inner)
			}
			refWriteString(b, k)
			b.WriteByte(':')
			if indent != "" {
				b.WriteByte(' ')
			}
			refWriteCanonical(b, t[k], inner, indent)
		}
		if indent != "" {
			b.WriteByte('\n')
			b.WriteString(prefix)
		}
		b.WriteByte('}')
	default:
		// The tree only contains the types above by construction; a
		// stray type means refToTree was bypassed. Fall back to
		// encoding/json (still deterministic for scalar types).
		raw, err := json.Marshal(t)
		if err != nil {
			b.WriteString("null")
			return
		}
		b.Write(raw)
	}
}

// refWriteNumber normalises a JSON number literal: integers pass through
// unchanged (minus a redundant leading "+" or exponent form is kept
// as parsed when integral round-trips fail), floats are reformatted in
// shortest round-trip 'g' form so 1.50, 1.5e0 and 1.5 all canonicalise
// to "1.5".
func refWriteNumber(b *bytes.Buffer, n json.Number) {
	s := n.String()
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		b.WriteString(strconv.FormatInt(i, 10))
		return
	}
	if u, err := strconv.ParseUint(s, 10, 64); err == nil {
		b.WriteString(strconv.FormatUint(u, 10))
		return
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
		return
	}
	// Out-of-range literal (e.g. a 100-digit integer): keep it verbatim
	// — it is still a fixed function of the input bytes.
	b.WriteString(s)
}

// refWriteString emits a JSON string with the minimal escape set
// (quote, backslash, control characters), leaving all other bytes —
// including multi-byte UTF-8 like the march notation arrows — as-is.
// encoding/json escapes <, > and & for HTML safety; canonical form
// does not, so the encoding is a pure function of the string value.
func refWriteString(b *bytes.Buffer, s string) {
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			if r < 0x20 {
				fmt.Fprintf(b, `\u%04x`, r)
			} else {
				b.WriteRune(r)
			}
		}
	}
	b.WriteByte('"')
}
