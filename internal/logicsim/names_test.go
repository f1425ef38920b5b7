package logicsim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestNetNamesGolden pins the net names the structural blocks intern:
// the SHA-256 of every name, in interning order, of a netlist that
// uses each block, with indexes past 100 so multi-digit names appear.
// The digest was first taken from the fmt.Sprintf naming the blocks
// used before they built names with strconv, so the two agree byte for
// byte; it was re-taken on that code when the unused XorReduce,
// Register and Mux2Bus blocks left the netlist.
func TestNetNamesGolden(t *testing.T) {
	s := New()
	rst := s.Net("rstN")
	s.UpDownCounter("ag", 12, rst)
	s.JohnsonCounter("jc", 130, rst)
	s.Decoder("dec", s.Bus("a", 4), s.Net("en"))
	s.EqComparator("eq", s.Bus("x", 5), s.Bus("y", 5))
	s.OrReduce("big", s.Bus("big_in", 300))
	h := sha256.New()
	for _, n := range s.names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	const want = "046aa8375a3dbc80419b305f565abb05bc95cb7b58fb6fbfcb0336d7407afd0e"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("net-name digest %s, want %s (%d nets)", got, want, len(s.names))
	}
}
