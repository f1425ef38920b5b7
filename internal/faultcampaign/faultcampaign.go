// Package faultcampaign is the adversarial-input harness for the
// BISRAMGEN pipeline: it feeds truncated, non-finite, oversized and
// plain garbage process decks, corrupt TRPLA plane files, malformed
// march strings and degenerate geometries through the full
// compiler.Compile flow and classifies every outcome. The hardening
// contract under test is that every case ends in a typed cerr error
// (or a clean compile) — never a panic, never a hang, never an
// untyped error. The suite runs in CI (TestCampaignIsClean) and on
// demand via `bisrsim faultcampaign`.
package faultcampaign

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cerr"
	"repro/internal/obs"
)

// Outcome classifies what one adversarial input did to the pipeline.
type Outcome int

// Outcome values. Only OK and TypedError are acceptable; the other
// three are hardening regressions.
const (
	// OK: the pipeline accepted the input (possibly with recorded
	// degradations).
	OK Outcome = iota
	// TypedError: the pipeline rejected the input with a typed cerr
	// error. This is the expected outcome for adversarial inputs.
	TypedError
	// UntypedError: an error escaped without a taxonomy code.
	UntypedError
	// Panicked: a panic escaped the pipeline's recover guards.
	Panicked
	// Hung: the case did not return before the campaign deadline.
	Hung
)

func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case TypedError:
		return "typed-error"
	case UntypedError:
		return "UNTYPED-ERROR"
	case Panicked:
		return "PANIC"
	case Hung:
		return "HANG"
	}
	return "?"
}

// Acceptable reports whether the outcome satisfies the hardening
// contract.
func (o Outcome) Acceptable() bool { return o == OK || o == TypedError }

// Case is one adversarial input: a named thunk that pushes the input
// through the pipeline and returns whatever the pipeline returned.
type Case struct {
	Name string
	// Kind groups cases in the report: "deck", "march", "planes",
	// "params", "planes+compile", ...
	Kind string
	// Run executes the case under ctx (which may carry an obs.Trace, so
	// pipeline stage spans land in the campaign trace). It must be safe
	// to call from a fresh goroutine.
	Run func(ctx context.Context) error
}

// Result is the classified outcome of one case.
type Result struct {
	Name    string
	Kind    string
	Outcome Outcome
	// Code is the taxonomy code for TypedError outcomes.
	Code cerr.Code
	// Detail is the error text (or panic value) behind the outcome.
	Detail  string
	Elapsed time.Duration
}

// Report aggregates a campaign run.
type Report struct {
	Results []Result
	// Trace collects one span per case (plus nested pipeline stage
	// spans) when the campaign was started with RunTraced.
	Trace *obs.Trace
}

// Clean reports whether every case ended acceptably.
func (r *Report) Clean() bool {
	for _, res := range r.Results {
		if !res.Outcome.Acceptable() {
			return false
		}
	}
	return true
}

// Counts tallies outcomes.
func (r *Report) Counts() map[Outcome]int {
	out := map[Outcome]int{}
	for _, res := range r.Results {
		out[res.Outcome]++
	}
	return out
}

// DefaultTimeout bounds each case. The pipeline's own kernels are
// budget-capped, so a healthy case returns in milliseconds; the
// timeout exists to convert a hardening regression into a Hung verdict
// instead of wedging the campaign.
const DefaultTimeout = 30 * time.Second

// RunTraced executes every case, each on its own goroutine with a
// recover barrier and the given per-case timeout (0 means
// DefaultTimeout). A timed-out case's goroutine is abandoned, not
// killed — acceptable for a diagnostic harness. With a non-nil trace
// each case records one span (annotated with kind and outcome) and the
// pipeline's own stage spans nest underneath, so a campaign trace shows
// exactly where each adversarial input spent its time.
func RunTraced(cases []Case, timeout time.Duration, tr *obs.Trace) *Report {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	rep := &Report{Trace: tr}
	for _, c := range cases {
		rep.Results = append(rep.Results, runOne(c, timeout, tr))
	}
	return rep
}

func runOne(c Case, timeout time.Duration, tr *obs.Trace) Result {
	res := Result{Name: c.Name, Kind: c.Kind}
	done := make(chan Result, 1)
	ctx := obs.WithTrace(context.Background(), tr)
	start := time.Now()
	go func() {
		r := res
		cctx, endSpan := obs.Start(ctx, c.Name)
		defer func() {
			if p := recover(); p != nil {
				r.Outcome = Panicked
				r.Detail = fmt.Sprintf("panic: %v", p)
			}
			// A timed-out case's abandoned goroutine still completes its
			// span when (if) it returns, which is the honest record.
			endSpan(obs.String("kind", c.Kind), obs.String("outcome", r.Outcome.String()))
			done <- r
		}()
		err := c.Run(cctx)
		switch {
		case err == nil:
			r.Outcome = OK
		case cerr.IsTyped(err):
			r.Outcome = TypedError
			r.Code = cerr.CodeOf(err)
			r.Detail = err.Error()
		default:
			r.Outcome = UntypedError
			r.Detail = err.Error()
		}
	}()
	select {
	case r := <-done:
		r.Elapsed = time.Since(start)
		return r
	case <-time.After(timeout):
		res.Outcome = Hung
		res.Detail = fmt.Sprintf("no response within %v", timeout)
		res.Elapsed = time.Since(start)
		return res
	}
}
