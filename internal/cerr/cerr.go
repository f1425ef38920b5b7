// Package cerr defines the compile pipeline's typed error taxonomy.
//
// BISRAMGEN's original pitch is dependable silicon generation: the tool
// validates user parameters, degrades gracefully (abutment -> channel
// routing), and reports "Repair Unsuccessful" rather than silently
// failing. This package is the reproduction's contract for the same
// property: every failure that can be provoked by user-controllable
// input (process decks, PLA plane files, march strings, circuit
// parameters) surfaces as an *Error carrying a stable Code and the
// pipeline stage that produced it, suitable for errors.Is/errors.As
// dispatch and for machine-readable reporting by a serving layer.
//
// Panic policy. After this package's introduction, panics in internal/
// are reserved for true invariant violations — conditions that cannot
// be reached from user-controllable inputs because the boundary
// validation in front of them rejects the offending values first.
// The documented residual panic sites are:
//
//   - geom.Compose / geom.Invert: the eight Manhattan orientations form
//     a closed group; composition and inversion are mathematically total.
//   - geom.Cell.MustPort: used by generators only for ports they
//     themselves created moments earlier.
//   - leafcell sanity(): a generator produced an empty cell — a
//     programming error in the generator itself.
//   - sram.MustNew: the Must-idiom constructor, documented tests-only;
//     production paths use sram.New.
//
// Every such site sits behind a compile-stage Recover guard, so even a
// programming error reaches callers of compiler.Compile as a typed
// ErrInternal, never a process crash.
package cerr

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
)

// Code identifies one failure class of the compile pipeline.
type Code int

// Failure classes.
const (
	// CodeUnknown marks an error that did not originate from this
	// taxonomy (e.g. a raw os error). CodeOf returns it for untyped
	// errors.
	CodeUnknown Code = iota
	// CodeInvalidParams: user circuit parameters outside the validated
	// envelope (word count, bpw/bpc mismatch, spare count, gate size).
	CodeInvalidParams
	// CodeDeckParse: a user-supplied process technology deck failed to
	// parse or validate (missing keys, non-finite values, bad rules).
	CodeDeckParse
	// CodeMarchParse: a march test string in the standard notation
	// failed to parse.
	CodeMarchParse
	// CodePlaneParse: TRPLA AND/OR control plane files are corrupt or
	// geometrically inconsistent.
	CodePlaneParse
	// CodeGeometry: layout generation produced or was asked for
	// impossible geometry (missing port, empty cell, bad transform).
	CodeGeometry
	// CodeNetlist: a circuit or gate-level netlist was assembled with
	// invalid elements (non-positive resistance, empty reduction, bus
	// width mismatch).
	CodeNetlist
	// CodeSimDiverged: the SPICE utility failed to converge (singular
	// matrix, Newton divergence) or a logic simulation did not settle.
	CodeSimDiverged
	// CodeFloorplan: macro placement failed (no legal position,
	// unknown macro/port in a net).
	CodeFloorplan
	// CodeRepairFailed: the self-test-and-repair flow ended in the
	// paper's "Repair Unsuccessful" state (fault count beyond the spare
	// budget, column defect, TLB overflow).
	CodeRepairFailed
	// CodeBudgetExceeded: an iteration cap or context deadline/cancel
	// bounded an unbounded kernel (SPICE transient, annealing refiner,
	// iterated repair) before completion.
	CodeBudgetExceeded
	// CodeNonFinite: a numeric model received or produced NaN/Inf where
	// a finite value is required (yield integration, reliability).
	CodeNonFinite
	// CodeInternal: a recovered panic — an invariant violation that the
	// stage guard converted into an error instead of crashing the
	// process.
	CodeInternal
	// CodeBadRequest: a service wire-format violation that is not a
	// parameter problem — an unknown request schema version, a
	// malformed sweep specification, or an HTTP method the route does
	// not accept. Maps to 400 at the HTTP boundary.
	CodeBadRequest
	// CodeOverloaded: the service shed the request because its bounded
	// queue is full or draining — a transient, retryable condition, not
	// a problem with the request. Maps to 429 + Retry-After at the HTTP
	// boundary; well-behaved clients back off and retry.
	CodeOverloaded
	// CodeSimSingular: the MNA linear solve hit a singular (or
	// numerically rank-deficient) system — structurally no unique
	// solution, e.g. a floating node. Distinct from CodeSimDiverged
	// (Newton ran out of iterations on a solvable system) so Monte
	// Carlo failure classification can tell "this sample's circuit is
	// broken" apart from "this sample did not converge": the former
	// aborts the whole estimate, the latter counts as a failing sample.
	CodeSimSingular
)

var codeNames = [...]string{
	CodeUnknown:        "ERR_UNKNOWN",
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

// String returns the stable machine-readable name (ERR_*).
func (c Code) String() string {
	if c < 0 || int(c) >= len(codeNames) {
		return fmt.Sprintf("ERR_CODE_%d", int(c))
	}
	return codeNames[c]
}

// Codes returns every defined code, for documentation and CLI help.
func Codes() []Code {
	out := make([]Code, 0, len(codeNames)-1)
	for c := CodeInvalidParams; int(c) < len(codeNames); c++ {
		out = append(out, c)
	}
	return out
}

// Error is the typed, code-carrying pipeline error. Stage attributes
// the failure to a compile stage ("validate", "floorplan", "timing",
// ...); Msg is the human-readable detail; Err is the wrapped cause.
type Error struct {
	Code  Code
	Stage string
	Msg   string
	Err   error
}

// Error implements the error interface. The rendering always leads
// with the stable code name so CLI users and log scrapers can key on
// it: "ERR_FLOORPLAN[floorplan]: no legal position for "tlb"".
func (e *Error) Error() string { return e.render(true) }

// render builds the message. withCode=false suppresses the leading
// code name — used when a wrapping error already printed the same
// code, so a chain reads "ERR_X[stage]: outer: inner" rather than
// repeating ERR_X at every layer.
func (e *Error) render(withCode bool) string {
	var b strings.Builder
	if withCode {
		b.WriteString(e.Code.String())
	}
	if e.Stage != "" {
		b.WriteString("[" + e.Stage + "]")
	}
	sep := func() {
		if b.Len() > 0 {
			b.WriteString(": ")
		}
	}
	if e.Msg != "" {
		sep()
		b.WriteString(e.Msg)
	}
	if e.Err != nil {
		sep()
		if inner, ok := e.Err.(*Error); ok && inner.Code == e.Code {
			b.WriteString(inner.render(false))
		} else {
			b.WriteString(e.Err.Error())
		}
	}
	return b.String()
}

// Unwrap exposes the cause for errors.Is/As traversal.
func (e *Error) Unwrap() error { return e.Err }

// Is matches bare sentinel errors of the same Code, so
// errors.Is(err, cerr.ErrFloorplan) holds for any floorplan failure
// regardless of stage or message.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Code == e.Code && t.Stage == "" && t.Msg == "" && t.Err == nil
}

// Sentinel errors, one per code, for errors.Is dispatch.
var (
	ErrInvalidParams  = &Error{Code: CodeInvalidParams}
	ErrDeckParse      = &Error{Code: CodeDeckParse}
	ErrMarchParse     = &Error{Code: CodeMarchParse}
	ErrPlaneParse     = &Error{Code: CodePlaneParse}
	ErrGeometry       = &Error{Code: CodeGeometry}
	ErrNetlist        = &Error{Code: CodeNetlist}
	ErrSimDiverged    = &Error{Code: CodeSimDiverged}
	ErrFloorplan      = &Error{Code: CodeFloorplan}
	ErrRepairFailed   = &Error{Code: CodeRepairFailed}
	ErrBudgetExceeded = &Error{Code: CodeBudgetExceeded}
	ErrNonFinite      = &Error{Code: CodeNonFinite}
	ErrInternal       = &Error{Code: CodeInternal}
	ErrOverloaded     = &Error{Code: CodeOverloaded}
	ErrSimSingular    = &Error{Code: CodeSimSingular}
)

// New builds a typed error with a formatted message.
func New(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Wrap attaches a code (and optional context message) to a cause.
// A nil cause yields nil, so call sites can wrap unconditionally.
// If the cause is already a typed *Error, its code wins unless it is
// CodeUnknown — wrapping never launders a specific classification into
// a generic one.
func Wrap(code Code, err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	if inner := (*Error)(nil); errors.As(err, &inner) && inner.Code != CodeUnknown {
		code = inner.Code
	}
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...), Err: err}
}

// WithStage attributes err to a pipeline stage, preserving its code.
// Untyped errors are classified CodeUnknown. A nil err yields nil.
func WithStage(stage string, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Code: CodeOf(err), Stage: stage, Err: err}
}

// CodeOf extracts the taxonomy code of err, or CodeUnknown for
// untyped errors (including nil).
func CodeOf(err error) Code {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return CodeUnknown
}

// StageOf returns the outermost stage attribution of err, or "".
func StageOf(err error) string {
	var e *Error
	for errors.As(err, &e) {
		if e.Stage != "" {
			return e.Stage
		}
		if e.Err == nil {
			break
		}
		err = e.Err
		e = nil
	}
	return ""
}

// IsTyped reports whether err carries a taxonomy code.
func IsTyped(err error) bool {
	var e *Error
	return errors.As(err, &e)
}

// Recover converts an in-flight panic into a typed CodeInternal error
// assigned to *errp, for use as a stage guard:
//
//	func stage(name string) (err error) {
//	    defer cerr.Recover(name, &err)
//	    ...
//	}
//
// The first lines of the stack are preserved in the wrapped cause so
// the invariant violation remains diagnosable.
func Recover(stage string, errp *error) {
	r := recover()
	if r == nil {
		return
	}
	stack := string(debug.Stack())
	if lines := strings.SplitN(stack, "\n", 16); len(lines) == 16 {
		stack = strings.Join(lines[:15], "\n") + "\n..."
	}
	*errp = &Error{
		Code:  CodeInternal,
		Stage: stage,
		Msg:   fmt.Sprintf("recovered panic: %v", r),
		Err:   errors.New(stack),
	}
}

// Parallel is the compile pipeline's one fan-out. It runs tasks on at
// most par goroutines, the caller's included, taking them in index
// order, and returns the error of the lowest-indexed task that failed.
// Every task runs under its own Recover guard attributed to stage (a
// panic cannot cross goroutines), and every task has returned before
// Parallel does, so no branch outlives the call.
//
// With par <= 1, or a single task, the tasks run inline, in order, and
// the first error stops the rest, exactly as straight-line code would.
// Above that every task runs even after one has failed.
func Parallel(stage string, par int, tasks ...func() error) error {
	run := func(i int) (err error) {
		defer Recover(stage, &err)
		return tasks[i]()
	}
	par = min(par, len(tasks))
	if par <= 1 {
		for i := range tasks {
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(tasks))
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < len(tasks); i = int(next.Add(1) - 1) {
			errs[i] = run(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(par - 1)
	for range par - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
