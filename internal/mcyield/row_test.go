package mcyield_test

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/cjson"
	"repro/internal/mcyield"
	"repro/internal/sweep"
)

// TestDeepTailSweepRowEncodes: a sweep results row whose Monte-Carlo
// failure probability sits below 5.5e-17 must still encode. The
// closed form the tail solve replaced gave sigma_level = +Inf there,
// which cjson refuses, failing GET /v1/sweeps/{id}/results.
func TestDeepTailSweepRowEncodes(t *testing.T) {
	const p = 1.84e-17
	row := sweep.MCRow{Samples: 2000, Sigma: 0.1, Seed: 9, FailProb: p,
		SigmaLevel: mcyield.SigmaLevel(p, 2000), YieldCell: 1 - p, YieldArray: 1}
	b, err := cjson.Marshal(row)
	if err != nil {
		t.Fatalf("deep-tail row refused: %v", err)
	}
	var back struct {
		SigmaLevel float64 `json:"sigma_level"`
	}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if math.Abs(back.SigmaLevel-8.42267) > 5e-5 {
		t.Fatalf("sigma_level %v round-tripped as %v, want 8.42267", row.SigmaLevel, back.SigmaLevel)
	}

	row.SigmaLevel = math.Sqrt2 * math.Erfinv(1-2*p)
	if _, err := cjson.Marshal(row); err == nil {
		t.Fatalf("cjson accepted sigma_level %v: this test no longer covers the failure it was written for", row.SigmaLevel)
	}
}
