package tech

import (
	"testing"

	"repro/internal/geom"
)

func TestBuiltinsValidate(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("tsmc7"); err == nil {
		t.Fatal("expected error for unknown process")
	}
}

func TestLambdaScaling(t *testing.T) {
	if CDA05.Lambda != 250 || CDA07.Lambda != 350 || MOS06.Lambda != 300 {
		t.Fatalf("lambda values wrong: %d %d %d", CDA05.Lambda, CDA07.Lambda, MOS06.Lambda)
	}
	if CDA05.L(4) != 1000 {
		t.Fatalf("L(4) = %d", CDA05.L(4))
	}
	// Same lambda-rule ratios across processes: poly width is 2λ everywhere.
	for _, p := range []*Process{CDA05, MOS06, CDA07} {
		if p.MinWidth(Poly) != p.L(2) {
			t.Errorf("%s: poly width %d != 2λ", p.Name, p.MinWidth(Poly))
		}
		if p.Pitch(Metal1) != p.MinWidth(Metal1)+p.Rules[Metal1].MinSpacing {
			t.Errorf("%s: pitch arithmetic broken", p.Name)
		}
	}
}

func TestBetaRatio(t *testing.T) {
	for _, p := range []*Process{CDA05, MOS06, CDA07} {
		br := p.BetaRatio()
		if br < 2.0 || br > 4.0 {
			t.Errorf("%s: implausible beta ratio %.2f", p.Name, br)
		}
	}
}

func TestMOSAccessor(t *testing.T) {
	if CDA07.MOS(NMOS).VT0 <= 0 {
		t.Fatal("NMOS VT0 should be positive")
	}
	if CDA07.MOS(PMOS).VT0 >= 0 {
		t.Fatal("PMOS VT0 should be negative")
	}
	if NMOS.String() != "nmos" || PMOS.String() != "pmos" {
		t.Fatal("MOSType strings wrong")
	}
}

func TestValidateRejectsBadDecks(t *testing.T) {
	bad := *CDA07
	bad.Metals = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("2-metal deck must be rejected (paper: BISR RAMs need 3 metals)")
	}
	bad2 := *CDA07
	bad2.Feature = 999
	if err := bad2.Validate(); err == nil {
		t.Fatal("feature/lambda mismatch must be rejected")
	}
	bad3 := *CDA07
	bad3.NMOS.KP = bad3.PMOS.KP / 2
	if err := bad3.Validate(); err == nil {
		t.Fatal("inverted mobility must be rejected")
	}
}

func TestLayerNames(t *testing.T) {
	if LayerName(Metal3) != "metal3" || LayerName(Poly) != "poly" {
		t.Fatal("layer names wrong")
	}
	if LayerName(geom.Layer(99)) != "layer99" {
		t.Fatal("fallback name wrong")
	}
	if len(RoutingLayers) != 3 {
		t.Fatal("expected 3 routing layers")
	}
}

func TestCorners(t *testing.T) {
	slow, err := CDA07.Corner("slow")
	if err != nil {
		t.Fatal(err)
	}
	fast, err := CDA07.Corner("fast")
	if err != nil {
		t.Fatal(err)
	}
	typ, err := CDA07.Corner("typ")
	if err != nil || typ != CDA07 {
		t.Fatal("typ corner should be the deck itself")
	}
	if !(slow.NMOS.KP < CDA07.NMOS.KP && fast.NMOS.KP > CDA07.NMOS.KP) {
		t.Fatal("corner mobilities wrong")
	}
	if !(slow.NMOS.VT0 > CDA07.NMOS.VT0) {
		t.Fatal("slow corner should raise VT")
	}
	// PMOS VT is negative: the magnitude must grow at slow.
	if !(slow.PMOS.VT0 < CDA07.PMOS.VT0) {
		t.Fatal("slow corner PMOS VT magnitude should grow")
	}
	if slow.Name != "cda07u3m1p.slow" {
		t.Fatalf("corner name %q", slow.Name)
	}
	// The base deck is untouched.
	if CDA07.NMOS.KP != 90e-6 {
		t.Fatal("corner mutated the base deck")
	}
	if _, err := CDA07.Corner("bogus"); err == nil {
		t.Fatal("unknown corner accepted")
	}
	if err := slow.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWireParasiticsPresent(t *testing.T) {
	for _, p := range []*Process{CDA05, MOS06, CDA07} {
		for _, l := range RoutingLayers {
			w, ok := p.Wire[l]
			if !ok || w.RSheet <= 0 || w.CArea <= 0 {
				t.Errorf("%s: missing parasitics on %s", p.Name, LayerName(l))
			}
		}
		// Upper metals should be lower resistance.
		if !(p.Wire[Metal3].RSheet <= p.Wire[Metal1].RSheet) {
			t.Errorf("%s: M3 should not be more resistive than M1", p.Name)
		}
	}
}
