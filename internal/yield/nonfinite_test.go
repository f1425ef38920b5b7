package yield

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cerr"
)

// TestCheckDefects: the guard accepts counts from 0 up to the
// representable bound and rejects the rest with a typed error.
func TestCheckDefects(t *testing.T) {
	cases := []struct {
		name    string
		defects float64
		want    *cerr.Error // nil means accepted
	}{
		{"zero", 0, nil},
		{"positive", 12.5, nil},
		{"at the representable bound", maxDefects, nil},
		{"negative", -3, cerr.ErrInvalidParams},
		{"past the representable bound", math.Nextafter(maxDefects, math.Inf(1)), cerr.ErrInvalidParams},
		{"e^-n underflows", 1000, cerr.ErrInvalidParams},
		{"largest finite", math.MaxFloat64, cerr.ErrInvalidParams},
		{"nan", math.NaN(), cerr.ErrNonFinite},
		{"+inf", math.Inf(1), cerr.ErrNonFinite},
		{"-inf", math.Inf(-1), cerr.ErrNonFinite},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckDefects(tc.defects)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("unexpected rejection: %v", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("want %v, got %v", tc.want, err)
			}
		})
	}
}

// TestAcceptedDefectsStayFinite: at every count CheckDefects accepts,
// up to its bound, the yields and the improvement factor a sweep row
// reports are finite.
func TestAcceptedDefectsStayFinite(t *testing.T) {
	for _, d := range []float64{0, 5, 700, maxDefects} {
		if err := CheckDefects(d); err != nil {
			t.Fatalf("defects %g rejected: %v", d, err)
		}
		for _, m := range []Model{
			{Rows: 64, Cols: 32, Spares: 4, GrowthFactor: 1},
			{Rows: 1024, Cols: 128, Spares: 16, GrowthFactor: 1.3},
		} {
			for _, v := range []float64{m.YieldNoRepair(d), m.YieldBISR(d), m.ImprovementFactor(d)} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("defects %g, model %+v: non-finite value %g", d, m, v)
				}
			}
		}
	}
}

// TestNegativeDefectsClamped: the plain evaluators treat a (finite)
// negative defect count as zero rather than returning >1 yields.
func TestNegativeDefectsClamped(t *testing.T) {
	m := Model{Rows: 64, Cols: 64, Spares: 4, GrowthFactor: 1.1}
	if y := m.YieldNoRepair(-5); y != 1 {
		t.Fatalf("clamped no-repair yield = %g, want 1", y)
	}
	if y := m.YieldBISR(-5); math.Abs(y-1) > 1e-9 {
		t.Fatalf("clamped BISR yield = %g, want ~1", y)
	}
}
