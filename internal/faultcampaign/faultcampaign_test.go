package faultcampaign

import (
	"context"
	"strings"
	"testing"
)

// TestCampaignIsClean is the acceptance gate of the hardening layer:
// every adversarial case must end in a clean compile or a typed cerr
// error — no panics, no hangs, no untyped errors.
func TestCampaignIsClean(t *testing.T) {
	cases := Cases()
	if len(cases) < 50 {
		t.Fatalf("campaign has %d cases, contract requires >= 50", len(cases))
	}
	rep := RunTraced(cases, 0, nil)
	for _, res := range rep.Results {
		if !res.Outcome.Acceptable() {
			t.Errorf("%-35s [%s] %v: %s", res.Name, res.Kind, res.Outcome, res.Detail)
		}
	}
	if t.Failed() {
		counts := rep.Counts()
		t.Fatalf("campaign dirty: %d ok, %d typed, %d untyped, %d panic, %d hang",
			counts[OK], counts[TypedError], counts[UntypedError], counts[Panicked], counts[Hung])
	}
}

// TestControlCasesCompile: the four clean control inputs must compile,
// proving the campaign is not rejecting everything.
func TestControlCasesCompile(t *testing.T) {
	rep := RunTraced(Cases(), 0, nil)
	controls := 0
	for _, res := range rep.Results {
		if strings.HasPrefix(res.Name, "control:") {
			controls++
			if res.Outcome != OK {
				t.Errorf("control case %q did not compile: %v %s", res.Name, res.Outcome, res.Detail)
			}
		}
	}
	if controls < 4 {
		t.Fatalf("only %d control cases found", controls)
	}
}

// TestAdversarialCasesRejected: no adversarial case may silently
// succeed — each must carry a taxonomy code.
func TestAdversarialCasesRejected(t *testing.T) {
	rep := RunTraced(Cases(), 0, nil)
	for _, res := range rep.Results {
		if strings.HasPrefix(res.Name, "control:") {
			continue
		}
		if res.Outcome == OK {
			t.Errorf("adversarial case %q compiled cleanly — corruption not detected", res.Name)
		}
		if res.Outcome == TypedError && res.Code.String() == "ERR_UNKNOWN" {
			t.Errorf("case %q rejected without a specific code: %s", res.Name, res.Detail)
		}
	}
}

// TestRunnerClassifiesPanics: the harness itself must convert an
// escaped panic into a Panicked verdict, not die.
func TestRunnerClassifiesPanics(t *testing.T) {
	rep := RunTraced([]Case{{Name: "boom", Kind: "meta", Run: func(context.Context) error { panic("boom") }}}, 0, nil)
	if got := rep.Results[0].Outcome; got != Panicked {
		t.Fatalf("want Panicked, got %v", got)
	}
	if rep.Clean() {
		t.Fatal("panicking campaign reported clean")
	}
}
