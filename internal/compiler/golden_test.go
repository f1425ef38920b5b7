package compiler

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/gds"
	"repro/internal/tech"
)

// refinedGolden pins the bytes of refined compiles: SHA-256 of
// Design.JSON() and of the gds.Write stream. The cases cover every
// deck and corner, spares 0/4/16, and refine budgets 1 (starts clamp
// to the budget), 2000, 8000 and 8003 (the remainder split gives the
// first three starts one extra move). A change to the annealing
// kernel, the multi-start split or the final floorplan assembly that
// moves a single placement shows up here as a digest mismatch.
var refinedGolden = []struct {
	deck, corner      string
	words, bpw, bpc   int
	spares, buf, iter int
	json, gds         string
}{
	{"cda07u3m1p", "typ", 256, 8, 4, 4, 1, 1,
		"655906eba9e2a8aec1184ce38cf6cd535aabd9ba175391414a1ba3f4036e42d8",
		"9b039d5e2cb0747bfba1cf2c1ad41a8804fc7c9c2c8ae1df4ea0796b99dfa0f3"},
	{"cda07u3m1p", "slow", 512, 16, 4, 0, 2, 2000,
		"9d5c79b07570a51351908c00ad204bf752871ebd4e84aaec5da0e69fdff69b02",
		"23150934339a158463f8beee95107d6295cfa03454c680cbd1a89351bc1458ee"},
	{"cda07u3m1p", "fast", 1024, 8, 8, 16, 1, 8000,
		"3d797d086554059d29f8961ea2e2538b513fbef7353f7d59e75452221a25a4a8",
		"91e836fc0fec198901ff48b1b570623a889579beadcebdc40b9b68c4420265df"},
	{"cda05u3m1p", "typ", 256, 16, 4, 16, 2, 8003,
		"819dbfa9b18a1354df2b6816a452bbdfad65d0e900fc0e4d953337f5c4fd7039",
		"aa9f60aaec5a8875dae901f1cee5a193c038d3591ffbc6b838d87418b3f41b79"},
	{"cda05u3m1p", "slow", 1024, 32, 8, 4, 3, 8000,
		"69e730c59108a3fb650fbdb260eb7110ef4c8571398f8f6502c109336c1d2070",
		"8ce8ebdde6a7b85818aadf03ea4603449c06e41f78e6e1f6830165e386fe2a72"},
	{"cda05u3m1p", "fast", 512, 8, 4, 0, 1, 1,
		"456580fd2706eb18ea02d70a5fffb45a31daead709f68517a60e459348f26f6d",
		"ed8e4b4ae06bd1d1ed63841de757954c4cf25c46c43e2e69b75804c23b95c759"},
	{"mos06u3m1pHP", "typ", 2048, 16, 16, 0, 2, 8000,
		"a14d18ec740076be3f3f9bfff58ce0bfdfc7d40bd47cb44400c91e41b8beba74",
		"11386047a461f51e361a7434ae3e5bc0bef4e8a2109db56510b517fc068cd6e1"},
	{"mos06u3m1pHP", "slow", 256, 8, 4, 16, 1, 2000,
		"5c79d284d3c14abdd35f475a84867f9c08063a428afdf5088c216d9e0f4683a6",
		"5683cff4a10ff82c42f5696740cd947aa42fbf73eba91f7981976dc1fe72504f"},
	{"mos06u3m1pHP", "fast", 1024, 16, 8, 4, 4, 8003,
		"9f44d3bde456d4ff05ce3ec8871471c13ea820a7511a68411c874e69de5db38a",
		"8b3bd0442bb9bd85cf352bae7bbad3dac6f00e310d1ccddaf011bcfc5c039952"},
	{"cda07u3m1p", "typ", 4096, 128, 8, 4, 2, 8000,
		"9561920dd8be7539b545214774d53b649e4aa0f0a2883104784a8e481f1e0f40",
		"9fb636c3a6ef633e8e18abc9bf39c72891ebbe8e8a884ff9d2416fd476d38cef"},
	{"cda05u3m1p", "typ", 1024, 32, 8, 4, 1, 2000,
		"132ab94f2162ca164a8dbf481e3dd1d0aa2db975ed831ead45a07c967ec2e042",
		"81fe0ec06ee5baaf156e4f1283c3f342b545aae6bf4325946cddd70697ecb1e8"},
	{"mos06u3m1pHP", "slow", 2048, 16, 16, 16, 2, 8003,
		"a3942df0e56e967058f6ed31d63116629a2b443bdbdbdee96b9ca36a78ba1ada",
		"fdd320dd4552f2b57818e12502c121888e6c3553e0926a4d9dab31fc4bfbb967"},
}

// TestRefinedCompileGolden compiles every refinedGolden case serially
// and with four goroutines and requires both to reproduce the pinned
// digests.
func TestRefinedCompileGolden(t *testing.T) {
	for _, c := range refinedGolden {
		name := fmt.Sprintf("%s.%s/w%d.b%d.c%d.s%d/it%d", c.deck, c.corner, c.words, c.bpw, c.bpc, c.spares, c.iter)
		t.Run(name, func(t *testing.T) {
			deck, err := tech.ByName(c.deck)
			if err != nil {
				t.Fatal(err)
			}
			proc, err := deck.Corner(c.corner)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4} {
				d, err := Compile(Params{
					Words: c.words, BPW: c.bpw, BPC: c.bpc, Spares: c.spares,
					BufSize: c.buf, StrapCells: 32, Process: proc,
					RefineIterations: c.iter, Parallelism: par,
				})
				if err != nil {
					t.Fatal(err)
				}
				js, err := d.JSON()
				if err != nil {
					t.Fatal(err)
				}
				var g bytes.Buffer
				if err := gds.Write(&g, d.Top, d.Top.Name); err != nil {
					t.Fatal(err)
				}
				jsum := sha256.Sum256([]byte(js))
				gsum := sha256.Sum256(g.Bytes())
				if got := hex.EncodeToString(jsum[:]); got != c.json {
					t.Errorf("par %d: JSON digest %s, want %s", par, got, c.json)
				}
				if got := hex.EncodeToString(gsum[:]); got != c.gds {
					t.Errorf("par %d: GDS digest %s, want %s", par, got, c.gds)
				}
			}
		})
	}
}
