package gds

import (
	"encoding/binary"
	"io"
	"math"

	"repro/internal/geom"
)

// The record-at-a-time GDSII writer that gds.Write replaced, verbatim
// but for renamed identifiers: one io.Writer call per record header
// and per record body, a fresh slice per record. FuzzGDSDifferential
// and TestWriteMatchesReference require the single-buffer writer to
// reproduce its bytes exactly.

type refWriter struct {
	w   io.Writer
	err error
}

func (w *refWriter) record(rectype uint16, data []byte) {
	if w.err != nil {
		return
	}
	length := uint16(4 + len(data))
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[0:2], length)
	binary.BigEndian.PutUint16(hdr[2:4], rectype)
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.err = err
		return
	}
	if len(data) > 0 {
		if _, err := w.w.Write(data); err != nil {
			w.err = err
		}
	}
}

func (w *refWriter) recordString(rectype uint16, s string) {
	b := []byte(s)
	if len(b)%2 == 1 {
		b = append(b, 0) // GDSII pads strings to even length
	}
	w.record(rectype, b)
}

func (w *refWriter) recordInt16(rectype uint16, vals ...int16) {
	b := make([]byte, 2*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint16(b[2*i:], uint16(v))
	}
	w.record(rectype, b)
}

func (w *refWriter) recordInt32(rectype uint16, vals ...int32) {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint32(b[4*i:], uint32(v))
	}
	w.record(rectype, b)
}

// real8Ref encodes an IEEE float into GDSII's excess-64 base-16 8-byte
// real format.
func real8Ref(f float64) []byte {
	out := make([]byte, 8)
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

func (w *refWriter) recordReal8(rectype uint16, vals ...float64) {
	var b []byte
	for _, v := range vals {
		b = append(b, real8Ref(v)...)
	}
	w.record(rectype, b)
}

// refStamp is the fixed timestamp written into BGNLIB/BGNSTR (GDSII
// wants 12 int16s: modification + access time). A fixed stamp keeps
// output deterministic.
var refStamp = []int16{1999, 3, 9, 12, 0, 0, 1999, 3, 9, 12, 0, 0}

// writeRef is the record-at-a-time writer gds.Write replaced, kept
// verbatim (identifiers renamed) as the oracle the single-buffer
// writer must match byte for byte.
func writeRef(w io.Writer, top *geom.Cell, libName string) error {
	gw := &refWriter{w: w}
	gw.recordInt16(recHEADER, 600) // GDSII v6
	gw.recordInt16(recBGNLIB, refStamp...)
	gw.recordString(recLIBNAME, sanitize(libName))
	// UNITS: user unit = 1e-3 (µm per dbu), database unit = 1e-9 m.
	gw.recordReal8(recUNITS, 1e-3, 1e-9)

	// Collect unique cells bottom-up; names must be unique.
	order, names := collect(top)
	for _, c := range order {
		gw.recordInt16(recBGNSTR, refStamp...)
		gw.recordString(recSTRNAME, names[c])
		for _, s := range c.Shapes {
			gw.record(recBOUNDARY, nil)
			gw.recordInt16(recLAYER, int16(s.Layer))
			gw.recordInt16(recDATATYPE, 0)
			r := s.Rect
			gw.recordInt32(recXY,
				int32(r.X0), int32(r.Y0),
				int32(r.X1), int32(r.Y0),
				int32(r.X1), int32(r.Y1),
				int32(r.X0), int32(r.Y1),
				int32(r.X0), int32(r.Y0))
			gw.record(recENDEL, nil)
		}
		for i := range c.Instances {
			in := &c.Instances[i]
			gw.record(recSREF, nil)
			gw.recordString(recSNAME, names[in.Cell])
			mirror, angle := strans(in.Orient)
			if mirror || angle != 0 {
				var flags int16
				if mirror {
					flags = int16(-32768) // bit 0 (MSB): reflection about x
				}
				gw.recordInt16(recSTRANS, flags)
				if angle != 0 {
					gw.recordReal8(recANGLE, angle)
				}
			}
			gw.recordInt32(recXY, int32(in.At.X), int32(in.At.Y))
			gw.record(recENDEL, nil)
		}
		gw.record(recENDSTR, nil)
	}
	gw.record(recENDLIB, nil)
	return gw.err
}
