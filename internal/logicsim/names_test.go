package logicsim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestNetNamesGolden pins the net names the structural blocks intern:
// the SHA-256 of every name, in interning order, of a netlist that
// uses each block, with indexes past 100 so multi-digit names appear.
// The digest was taken from the fmt.Sprintf naming the blocks used
// before they built names with strconv, so the two agree byte for
// byte.
func TestNetNamesGolden(t *testing.T) {
	s := New()
	rst := s.Net("rstN")
	s.UpDownCounter("ag", 12, rst)
	s.JohnsonCounter("jc", 130, rst)
	s.Decoder("dec", s.Bus("a", 4), s.Net("en"))
	s.EqComparator("eq", s.Bus("x", 5), s.Bus("y", 5))
	s.XorReduce("par", s.Bus("w", 7))
	s.OrReduce("big", s.Bus("big_in", 300))
	s.Register("r", s.Bus("rd", 3), rst)
	s.Mux2Bus("m", s.Net("sel"), s.Bus("ma", 2), s.Bus("mb", 2))
	h := sha256.New()
	for _, n := range s.names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	const want = "a889bdf4b0cac2d9a04d0ac26e38e98c75aaeaee5c6cbdf8a8122e45e2f1909b"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("net-name digest %s, want %s (%d nets)", got, want, len(s.names))
	}
}
