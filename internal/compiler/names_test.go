package compiler

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// TestInstanceNamesGolden pins every macro's instance names, children
// and offsets: the SHA-256 of a walk over each macro's cell tree, for a
// strapped design with spares and one without either, both with
// indexes past 100. The digest was taken from the fmt.Sprintf naming
// the builders used before they built names with strconv, so the two
// agree byte for byte.
func TestInstanceNamesGolden(t *testing.T) {
	h := sha256.New()
	for _, p := range []Params{
		{Words: 1024, BPW: 32, BPC: 4, Spares: 16, BufSize: 1, StrapCells: 32, Process: tech.CDA07},
		{Words: 2048, BPW: 8, BPC: 16, BufSize: 2, Process: tech.CDA05},
	} {
		d, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[*geom.Cell]bool{}
		var walk func(c *geom.Cell)
		walk = func(c *geom.Cell) {
			if seen[c] {
				return
			}
			seen[c] = true
			fmt.Fprintf(h, "cell %s\n", c.Name)
			for _, in := range c.Instances {
				fmt.Fprintf(h, "%s %s %v %d %d\n", in.Name, in.Cell.Name, in.Orient, in.At.X, in.At.Y)
				walk(in.Cell)
			}
		}
		for _, name := range []string{"array", "rowdec", "colper", "datagen", "addgen", "streg", "trpla", "tlb"} {
			if c, ok := d.Macros[name]; ok {
				walk(c)
			}
		}
	}
	const want = "3e872966c6405121604327568c3526cbe0913f0841e4872fefa65a07586f885c"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("instance digest %s, want %s", got, want)
	}
}
