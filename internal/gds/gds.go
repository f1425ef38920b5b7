// Package gds writes layout hierarchies as GDSII stream files — the
// interchange format every 1990s (and current) physical-design flow
// consumes, so BISRAMGEN's output can be opened in KLayout or fed to
// a foundry DRC. The writer emits one structure per distinct cell
// with BOUNDARY records for shapes and SREF records (with the proper
// STRANS/ANGLE encoding of the eight Manhattan orientations) for
// instances. A minimal reader parses the records back for round-trip
// verification.
package gds

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/geom"
)

// GDSII record types used here.
const (
	recHEADER   = 0x0002
	recBGNLIB   = 0x0102
	recLIBNAME  = 0x0206
	recUNITS    = 0x0305
	recBGNSTR   = 0x0502
	recSTRNAME  = 0x0606
	recENDSTR   = 0x0700
	recBOUNDARY = 0x0800
	recSREF     = 0x0A00
	recLAYER    = 0x0D02
	recDATATYPE = 0x0E02
	recXY       = 0x1003
	recENDLIB   = 0x0400
	recENDEL    = 0x1100
	recSNAME    = 0x1206
	recSTRANS   = 0x1A01
	recANGLE    = 0x1C05
)

// scratch pools the buffers streams are assembled in: a layout's
// stream is one append pass into a buffer that a previous stream
// already grew, so writing allocates nothing per record.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// Write emits the cell hierarchy rooted at top as a GDSII library.
// Units: 1 dbu = 1 nm (the geometry kernel's convention).
func Write(w io.Writer, top *geom.Cell, libName string) error {
	buf := scratch.Get().(*[]byte)
	defer scratch.Put(buf)
	*buf = appendLibrary((*buf)[:0], top, libName)
	_, err := w.Write(*buf)
	return err
}

// Bytes returns the stream Write emits, in a slice of exactly its
// length, so a caller that retains it (the daemon's job table keeps
// finished artifacts) holds no slack capacity.
func Bytes(top *geom.Cell, libName string) []byte {
	buf := scratch.Get().(*[]byte)
	defer scratch.Put(buf)
	*buf = appendLibrary((*buf)[:0], top, libName)
	out := make([]byte, len(*buf))
	copy(out, *buf)
	return out
}

// appendLibrary appends the whole stream to b.
func appendLibrary(b []byte, top *geom.Cell, libName string) []byte {
	b = appendInt16s(b, recHEADER, 600) // GDSII v6
	b = appendInt16s(b, recBGNLIB, nowStamp[:]...)
	b = appendString(b, recLIBNAME, sanitize(libName))
	// UNITS: user unit = 1e-3 (µm per dbu), database unit = 1e-9 m.
	b = appendHeader(b, recUNITS, 16)
	b = appendReal8(appendReal8(b, 1e-3), 1e-9)

	// Collect unique cells bottom-up; names must be unique.
	order, names := collect(top)
	for _, c := range order {
		b = appendInt16s(b, recBGNSTR, nowStamp[:]...)
		b = appendString(b, recSTRNAME, names[c])
		for _, s := range c.Shapes {
			b = appendHeader(b, recBOUNDARY, 0)
			b = appendInt16s(b, recLAYER, int16(s.Layer))
			b = appendInt16s(b, recDATATYPE, 0)
			r := s.Rect
			b = appendInt32s(b, recXY,
				int32(r.X0), int32(r.Y0),
				int32(r.X1), int32(r.Y0),
				int32(r.X1), int32(r.Y1),
				int32(r.X0), int32(r.Y1),
				int32(r.X0), int32(r.Y0))
			b = appendHeader(b, recENDEL, 0)
		}
		for i := range c.Instances {
			in := &c.Instances[i]
			b = appendHeader(b, recSREF, 0)
			b = appendString(b, recSNAME, names[in.Cell])
			mirror, angle := strans(in.Orient)
			if mirror || angle != 0 {
				var flags int16
				if mirror {
					flags = int16(-32768) // bit 0 (MSB): reflection about x
				}
				b = appendInt16s(b, recSTRANS, flags)
				if angle != 0 {
					b = appendHeader(b, recANGLE, 8)
					b = appendReal8(b, angle)
				}
			}
			b = appendInt32s(b, recXY, int32(in.At.X), int32(in.At.Y))
			b = appendHeader(b, recENDEL, 0)
		}
		b = appendHeader(b, recENDSTR, 0)
	}
	return appendHeader(b, recENDLIB, 0)
}

// appendHeader appends a record header for n data bytes.
func appendHeader(b []byte, rectype uint16, n int) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(4+n))
	return binary.BigEndian.AppendUint16(b, rectype)
}

func appendString(b []byte, rectype uint16, s string) []byte {
	pad := len(s) % 2 // GDSII pads strings to even length
	b = appendHeader(b, rectype, len(s)+pad)
	b = append(b, s...)
	if pad == 1 {
		b = append(b, 0)
	}
	return b
}

func appendInt16s(b []byte, rectype uint16, vals ...int16) []byte {
	b = appendHeader(b, rectype, 2*len(vals))
	for _, v := range vals {
		b = binary.BigEndian.AppendUint16(b, uint16(v))
	}
	return b
}

func appendInt32s(b []byte, rectype uint16, vals ...int32) []byte {
	b = appendHeader(b, rectype, 4*len(vals))
	for _, v := range vals {
		b = binary.BigEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// appendReal8 appends f in GDSII's excess-64 base-16 8-byte real
// format.
func appendReal8(b []byte, f float64) []byte {
	r := real8(f)
	return append(b, r[:]...)
}

// real8 encodes an IEEE float into GDSII's excess-64 base-16 8-byte
// real format.
func real8(f float64) (out [8]byte) {
	if f == 0 {
		return out
	}
	sign := byte(0)
	if f < 0 {
		sign = 0x80
		f = -f
	}
	exp := 0
	for f >= 1 {
		f /= 16
		exp++
	}
	for f < 1.0/16 {
		f *= 16
		exp--
	}
	mant := uint64(f * math.Pow(2, 56))
	out[0] = sign | byte(exp+64)
	for i := 1; i < 8; i++ {
		out[i] = byte(mant >> uint(8*(7-i)))
	}
	return out
}

// nowStamp is the fixed timestamp written into BGNLIB/BGNSTR (GDSII
// wants 12 int16s: modification + access time). A fixed stamp keeps
// output deterministic.
var nowStamp = [12]int16{1999, 3, 9, 12, 0, 0, 1999, 3, 9, 12, 0, 0}

// strans converts a geom orientation to the GDSII (mirror-about-x,
// CCW angle) pair. geom's Orient mirrors about the Y axis before
// rotating; GDSII reflects about the X axis before rotating. The
// identities MY = MX·R180 and MXR90 = MX·R90 etc. give the mapping.
func strans(o geom.Orient) (mirror bool, angleDeg float64) {
	switch o {
	case geom.R0:
		return false, 0
	case geom.R90:
		return false, 90
	case geom.R180:
		return false, 180
	case geom.R270:
		return false, 270
	case geom.MX: // y -> -y: reflect about X axis
		return true, 0
	case geom.MY: // x -> -x = reflect-X then rotate 180
		return true, 180
	case geom.MXR90: // mirror-Y then R90 = reflect-X then R270
		return true, 270
	case geom.MYR90: // mirror-Y then R270 = reflect-X then R90
		return true, 90
	}
	return false, 0
}

// collect returns cells in child-first order with unique names.
func collect(top *geom.Cell) ([]*geom.Cell, map[*geom.Cell]string) {
	var order []*geom.Cell
	names := map[*geom.Cell]string{}
	used := map[string]int{}
	var visit func(c *geom.Cell)
	visit = func(c *geom.Cell) {
		if _, done := names[c]; done {
			return
		}
		names[c] = "" // mark in-progress to survive cycles (shouldn't happen)
		for i := range c.Instances {
			visit(c.Instances[i].Cell)
		}
		base := sanitize(c.Name)
		if base == "" {
			base = "CELL"
		}
		name := base
		if n := used[base]; n > 0 {
			name = fmt.Sprintf("%s_%d", base, n)
		}
		used[base]++
		names[c] = name
		order = append(order, c)
	}
	visit(top)
	return order, names
}

// sanitize maps arbitrary cell names into the GDSII structure-name
// alphabet.
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '$':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() > 32 {
		return b.String()[:32]
	}
	return b.String()
}

// --- minimal reader for round-trip verification ---------------------

// Record is one parsed GDSII record.
type Record struct {
	Type uint16
	Data []byte
}

// Parse splits a GDSII stream into records.
func Parse(data []byte) ([]Record, error) {
	var out []Record
	for off := 0; off < len(data); {
		if off+4 > len(data) {
			return nil, fmt.Errorf("gds: truncated record header at %d", off)
		}
		length := int(binary.BigEndian.Uint16(data[off : off+2]))
		rectype := binary.BigEndian.Uint16(data[off+2 : off+4])
		if length < 4 || off+length > len(data) {
			return nil, fmt.Errorf("gds: bad record length %d at %d", length, off)
		}
		out = append(out, Record{Type: rectype, Data: data[off+4 : off+length]})
		off += length
	}
	return out, nil
}

// Summary condenses a parsed stream for assertions: structure names,
// boundary count per layer, and sref count.
type Summary struct {
	Structures []string
	Boundaries map[int]int
	SRefs      int
}

// Summarize parses and tallies a stream.
func Summarize(data []byte) (*Summary, error) {
	recs, err := Parse(data)
	if err != nil {
		return nil, err
	}
	s := &Summary{Boundaries: map[int]int{}}
	for i, r := range recs {
		switch r.Type {
		case recSTRNAME:
			s.Structures = append(s.Structures, strings.TrimRight(string(r.Data), "\x00"))
		case recLAYER:
			if len(r.Data) >= 2 {
				s.Boundaries[int(int16(binary.BigEndian.Uint16(r.Data)))]++
			}
		case recSREF:
			s.SRefs++
		}
		_ = i
	}
	sort.Strings(s.Structures)
	return s, nil
}
