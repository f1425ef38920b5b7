package tech

import (
	"strings"
	"testing"

	"repro/internal/geom"
)

const sampleDeck = `
# a user 0.35um deck
name       user035u4m1p
feature_nm 350
metals     4
vdd        3.3
kp_n       150e-6
kp_p       55e-6
vt_n       0.6
vt_p       -0.65
rule metal1 width 4 spacing 4
`

func TestParseDeck(t *testing.T) {
	p, err := Parse(strings.NewReader(sampleDeck))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "user035u4m1p" || p.Feature != 350 || p.Lambda != 175 || p.Metals != 4 {
		t.Fatalf("parsed deck wrong: %+v", p)
	}
	if p.NMOS.VT0 != 0.6 || p.PMOS.VT0 != -0.65 {
		t.Fatal("threshold overrides lost")
	}
	// Rule override: metal1 4λ/4λ instead of the default 3λ/3λ.
	if p.MinWidth(Metal1) != p.L(4) || p.Rules[Metal1].MinSpacing != p.L(4) {
		t.Fatalf("rule override lost: %v", p.Rules[Metal1])
	}
	// Non-overridden layers keep scalable defaults.
	if p.MinWidth(Poly) != p.L(2) {
		t.Fatal("default rules lost")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseRegisterLookup(t *testing.T) {
	p, err := Parse(strings.NewReader(sampleDeck))
	if err != nil {
		t.Fatal(err)
	}
	register(p)
	got, err := ByName("user035u4m1p")
	if err != nil || got != p {
		t.Fatal("registered deck not found")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"feature_nm 500\nvdd 3.3\nkp_n 1e-4\nkp_p 4e-5\n",                                        // missing name
		"name x\nfeature_nm 501\nvdd 3.3\nkp_n 1e-4\nkp_p 4e-5\n",                                // odd feature
		"name x\nfeature_nm 500\nvdd 3.3\nkp_n bogus\nkp_p 4e-5\n",                               // bad float
		"name x\nfeature_nm 500\nvdd 3.3\nkp_n 1e-4\nkp_p 4e-5\nmetals 2\n",                      // too few metals
		"name x\nfeature_nm 500\nvdd 3.3\nkp_n 1e-4\nkp_p 4e-5\nrule bogus width 3 spacing 3\n",  // unknown layer
		"name x\nfeature_nm 500\nvdd 3.3\nkp_n 1e-4\nkp_p 4e-5\nrule metal1 width 0 spacing 3\n", // zero width
		"just one field\nname x\n", // malformed line
	}
	for i, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted:\n%s", i, c)
		}
	}
}

func TestParsedDeckUsableByDRC(t *testing.T) {
	p, err := Parse(strings.NewReader(sampleDeck))
	if err != nil {
		t.Fatal(err)
	}
	// A wire at the overridden width passes; the old default width
	// fails.
	c := geom.NewCell("w")
	c.AddShape(Metal1, geom.R(0, 0, p.L(3), p.L(20)), "a")
	rules := map[geom.Layer]geom.Rule{Metal1: p.Rules[Metal1]}
	if vs := geom.Check(c, rules, 1); len(vs) != 1 {
		t.Fatal("3λ wire should violate the 4λ override")
	}
}
