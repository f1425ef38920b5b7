package reliability

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cerr"
)

func goodModel() Model {
	return Model{Rows: 64, BPC: 4, BPW: 8, Spares: 4, LambdaBit: 1e-9}
}

// TestValidateNonFinite: a NaN failure rate must not slip through the
// `<= 0` comparison (NaN comparisons are always false), and every
// rejection carries its taxonomy code.
func TestValidateNonFinite(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Model)
		want *cerr.Error
	}{
		{"nan lambda", func(m *Model) { m.LambdaBit = math.NaN() }, cerr.ErrNonFinite},
		{"+inf lambda", func(m *Model) { m.LambdaBit = math.Inf(1) }, cerr.ErrNonFinite},
		{"-inf lambda", func(m *Model) { m.LambdaBit = math.Inf(-1) }, cerr.ErrNonFinite},
		{"zero lambda", func(m *Model) { m.LambdaBit = 0 }, cerr.ErrInvalidParams},
		{"negative lambda", func(m *Model) { m.LambdaBit = -1e-9 }, cerr.ErrInvalidParams},
		{"zero rows", func(m *Model) { m.Rows = 0 }, cerr.ErrInvalidParams},
		{"negative spares", func(m *Model) { m.Spares = -2 }, cerr.ErrInvalidParams},
	}
	if err := goodModel().Validate(); err != nil {
		t.Fatalf("baseline model rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := goodModel()
			tc.mut(&m)
			if err := m.Validate(); !errors.Is(err, tc.want) {
				t.Fatalf("want %v, got %v", tc.want, err)
			}
		})
	}
}

// TestCrossoverAgeGuards covers the query guards on the crossover
// search.
func TestCrossoverAgeGuards(t *testing.T) {
	m := goodModel()
	if _, err := CrossoverAge(m, 4, 8, math.NaN()); !errors.Is(err, cerr.ErrNonFinite) {
		t.Fatalf("NaN horizon: %v", err)
	}
	if _, err := CrossoverAge(m, 4, 8, math.Inf(1)); !errors.Is(err, cerr.ErrNonFinite) {
		t.Fatalf("Inf horizon: %v", err)
	}
	if _, err := CrossoverAge(m, 8, 4, 1e6); !errors.Is(err, cerr.ErrInvalidParams) {
		t.Fatalf("inverted spare order: %v", err)
	}
	if _, err := CrossoverAge(m, -1, 4, 1e6); !errors.Is(err, cerr.ErrInvalidParams) {
		t.Fatalf("negative spares: %v", err)
	}
	bad := m
	bad.LambdaBit = math.NaN()
	if _, err := CrossoverAge(bad, 4, 8, 1e6); !errors.Is(err, cerr.ErrNonFinite) {
		t.Fatalf("NaN model: %v", err)
	}
}
