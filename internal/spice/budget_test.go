package spice

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/cerr"
	"repro/internal/tech"
)

// rcCircuit builds a small RC charging circuit that is cheap per step,
// so the transient budget is dominated by the step count.
func rcCircuit() *Circuit {
	p := tech.CDA07
	ckt := New()
	ckt.V("vin", "in", Step(0, p.VDD, 1e-9, 50e-12))
	ckt.R("in", "out", 10e3)
	ckt.C("out", "0", 1e-12)
	return ckt
}

// TestTransientCtxDeadline runs a step-heavy transient under a 1 ms
// wall-clock deadline: it must stop promptly with ERR_BUDGET_EXCEEDED
// and return the partial waveform computed so far.
func TestTransientCtxDeadline(t *testing.T) {
	ckt := rcCircuit()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	// ~2M steps: far more than 1 ms of work.
	res, err := ckt.TransientCtx(ctx, 2e-6, 1e-12, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, cerr.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("transient did not stop promptly: %v", elapsed)
	}
	if res == nil || len(res.Times) == 0 {
		t.Fatal("no partial waveform returned")
	}
	if last := res.Times[len(res.Times)-1]; !(last < 2e-6) {
		t.Fatalf("partial result claims full run (t=%g)", last)
	}
}

// TestTransientStepCap rejects runs whose step count exceeds the
// static budget before any work happens.
func TestTransientStepCap(t *testing.T) {
	ckt := rcCircuit()
	_, err := ckt.TransientCtx(context.Background(), 1, 1e-12, nil) // 1e12 steps
	if !errors.Is(err, cerr.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

// TestTransientRejectsNonFiniteParams checks the NaN/Inf/zero guards on
// the public simulation entry point.
func TestTransientRejectsNonFiniteParams(t *testing.T) {
	cases := []struct{ tstop, h float64 }{
		{math.NaN(), 1e-12},
		{1e-9, math.NaN()},
		{math.Inf(1), 1e-12},
		{1e-9, 0},
		{-1e-9, 1e-12},
		{1e-9, -1e-12},
	}
	for _, tc := range cases {
		ckt := rcCircuit()
		if _, err := ckt.TransientCtx(context.Background(), tc.tstop, tc.h, nil); !errors.Is(err, cerr.ErrInvalidParams) {
			t.Fatalf("tstop=%g h=%g: want ErrInvalidParams, got %v", tc.tstop, tc.h, err)
		}
	}
}
