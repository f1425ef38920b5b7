package cerr

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestSentinelMatching(t *testing.T) {
	err := New(CodeFloorplan, "no legal position for %q", "tlb")
	if !errors.Is(err, ErrFloorplan) {
		t.Fatal("expected errors.Is(err, ErrFloorplan)")
	}
	if errors.Is(err, ErrDeckParse) {
		t.Fatal("floorplan error must not match deck-parse sentinel")
	}
	wrapped := fmt.Errorf("outer: %w", err)
	if !errors.Is(wrapped, ErrFloorplan) {
		t.Fatal("sentinel must match through fmt wrapping")
	}
}

func TestWrapPreservesInnerCode(t *testing.T) {
	inner := New(CodeDeckParse, "bad key")
	outer := Wrap(CodeInvalidParams, inner, "loading process")
	if CodeOf(outer) != CodeDeckParse {
		t.Fatalf("wrap must preserve the specific inner code, got %v", CodeOf(outer))
	}
	if Wrap(CodeGeometry, nil, "x") != nil {
		t.Fatal("wrapping nil must yield nil")
	}
	untyped := errors.New("plain")
	if CodeOf(Wrap(CodeGeometry, untyped, "ctx")) != CodeGeometry {
		t.Fatal("wrapping an untyped error must apply the given code")
	}
}

func TestWithStageAndStageOf(t *testing.T) {
	err := WithStage("timing", New(CodeSimDiverged, "newton diverged"))
	if got := StageOf(err); got != "timing" {
		t.Fatalf("StageOf = %q, want timing", got)
	}
	if CodeOf(err) != CodeSimDiverged {
		t.Fatalf("stage attribution must preserve code, got %v", CodeOf(err))
	}
	if !errors.Is(err, ErrSimDiverged) {
		t.Fatal("staged error must still match its sentinel")
	}
	if WithStage("x", nil) != nil {
		t.Fatal("WithStage(nil) must be nil")
	}
}

func TestErrorRendering(t *testing.T) {
	err := WithStage("floorplan", New(CodeFloorplan, "no legal position"))
	s := err.Error()
	if !strings.Contains(s, "ERR_FLOORPLAN") || !strings.Contains(s, "[floorplan]") {
		t.Fatalf("rendering %q must lead with code name and stage", s)
	}
}

func TestCodeNamesStable(t *testing.T) {
	want := map[Code]string{
		CodeInvalidParams:  "ERR_INVALID_PARAMS",
		CodeDeckParse:      "ERR_DECK_PARSE",
		CodeMarchParse:     "ERR_MARCH_PARSE",
		CodePlaneParse:     "ERR_PLANE_PARSE",
		CodeGeometry:       "ERR_GEOMETRY",
		CodeNetlist:        "ERR_NETLIST",
		CodeSimDiverged:    "ERR_SIM_DIVERGED",
		CodeFloorplan:      "ERR_FLOORPLAN",
		CodeRepairFailed:   "ERR_REPAIR_FAILED",
		CodeBudgetExceeded: "ERR_BUDGET_EXCEEDED",
		CodeNonFinite:      "ERR_NON_FINITE",
		CodeInternal:       "ERR_INTERNAL",
		CodeBadRequest:     "ERR_BAD_REQUEST",
		CodeOverloaded:     "ERR_OVERLOADED",
		CodeSimSingular:    "ERR_SIM_SINGULAR",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), name)
		}
	}
	if len(Codes()) != len(want) {
		t.Errorf("Codes() returned %d codes, want %d", len(Codes()), len(want))
	}
}

func TestRecoverConvertsPanic(t *testing.T) {
	run := func() (err error) {
		defer Recover("macros", &err)
		panic("geom: cell \"x\" has no port \"y\"")
	}
	err := run()
	if err == nil {
		t.Fatal("expected recovered error")
	}
	if CodeOf(err) != CodeInternal {
		t.Fatalf("recovered panic must be CodeInternal, got %v", CodeOf(err))
	}
	if StageOf(err) != "macros" {
		t.Fatalf("stage = %q, want macros", StageOf(err))
	}
	if !strings.Contains(err.Error(), "recovered panic") {
		t.Fatalf("unexpected rendering %q", err.Error())
	}
	// No panic: errp untouched.
	clean := func() (err error) {
		defer Recover("x", &err)
		return nil
	}
	if clean() != nil {
		t.Fatal("Recover must not fabricate an error without a panic")
	}
}

func TestCodeOfUntyped(t *testing.T) {
	if CodeOf(errors.New("plain")) != CodeUnknown {
		t.Fatal("untyped errors must map to CodeUnknown")
	}
	if CodeOf(nil) != CodeUnknown {
		t.Fatal("nil must map to CodeUnknown")
	}
	if IsTyped(errors.New("plain")) {
		t.Fatal("plain error must not be typed")
	}
	if !IsTyped(New(CodeGeometry, "x")) {
		t.Fatal("taxonomy error must be typed")
	}
}

// TestParallelInline: at par 1 the tasks run on the caller, in order,
// and the first error stops the rest; a panic is a typed ErrInternal
// attributed to the fan-out's stage.
func TestParallelInline(t *testing.T) {
	var order []int
	task := func(i int, err error) func() error {
		return func() error { order = append(order, i); return err }
	}
	fail := New(CodeFloorplan, "task 1")
	if err := Parallel("s", 1, task(0, nil), task(1, fail), task(2, nil)); err != fail {
		t.Fatalf("err = %v, want task 1's", err)
	}
	if fmt.Sprint(order) != "[0 1]" {
		t.Fatalf("ran %v, want [0 1]", order)
	}
	err := Parallel("s", 0, func() error { panic("boom") })
	if CodeOf(err) != CodeInternal || StageOf(err) != "s" {
		t.Fatalf("panic surfaced as %v", err)
	}
}

// TestParallelJoinsAndOrdersErrors: above par 1 every task runs, at
// most par at a time; the error returned is the lowest-indexed one even
// when a later task fails first; a panicking branch is recovered on its
// own goroutine; and every task has finished when Parallel returns.
func TestParallelJoinsAndOrdersErrors(t *testing.T) {
	const n, par = 12, 3
	var running, peak, done atomic.Int64
	release := make(chan struct{})
	tasks := make([]func() error, n)
	for i := range tasks {
		tasks[i] = func() error {
			defer done.Add(1)
			for r := running.Add(1); ; {
				if p := peak.Load(); r <= p || peak.CompareAndSwap(p, r) {
					break
				}
			}
			defer running.Add(-1)
			switch i {
			case 0:
				<-release // fails last in wall-clock time
				return New(CodeGeometry, "task 0")
			case 1:
				close(release)
				return New(CodeFloorplan, "task 1")
			case 5:
				panic("task 5")
			}
			return nil
		}
	}
	err := Parallel("s", par, tasks...)
	if CodeOf(err) != CodeGeometry {
		t.Fatalf("err = %v, want task 0's ERR_GEOMETRY", err)
	}
	if done.Load() != n {
		t.Fatalf("%d of %d tasks finished before Parallel returned", done.Load(), n)
	}
	if peak.Load() > par {
		t.Fatalf("%d tasks ran at once, want at most %d", peak.Load(), par)
	}
	tasks[0] = func() error { return nil }
	tasks[1] = func() error { return nil }
	if err := Parallel("s", par, tasks...); CodeOf(err) != CodeInternal || StageOf(err) != "s" {
		t.Fatalf("panicking branch surfaced as %v", err)
	}
}
