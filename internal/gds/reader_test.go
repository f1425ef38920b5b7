package gds

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// This file is the minimal GDSII reader the tests verify the writer's
// round trip with.

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
	for _, r := range recs {
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
	}
	sort.Strings(s.Structures)
	return s, nil
}
