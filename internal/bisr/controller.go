package bisr

import (
	"context"
	"sort"

	"repro/internal/bist"
	"repro/internal/cerr"
	"repro/internal/march"
	"repro/internal/obs"
)

// Outcome summarises a self-test-and-repair session.
type Outcome struct {
	Repaired   bool // the final verification pass saw no faults
	Iterations int  // test-and-repair iterations executed (1 = single 2-pass run)
	SparesUsed int
	Captures   int // total pass-1 captures across iterations
	Overflow   bool
	Stats      []bist.RunStats // per-iteration engine statistics
	// ColumnSuspects lists physical columns whose failures span more
	// rows than the spare budget: the §VI signature of a column
	// (bitline) defect, which row redundancy cannot repair. The
	// controller diagnoses these from the captured miscompare data;
	// the paper's flow reports them and leaves repair to off-chip
	// means.
	ColumnSuspects []int
}

// Controller owns the repair session for one RAM.
type Controller struct {
	RAM  *RAM
	Test march.Test
	// MaxIterations bounds the iterated 2k-pass flow; 1 reproduces the
	// paper's base two-pass algorithm. 0 defaults to 1.
	MaxIterations int
}

// NewController returns a controller running IFA-9, the algorithm
// BISRAMGEN microprograms by default.
func NewController(ram *RAM) *Controller {
	return &Controller{RAM: ram, Test: march.IFA9(), MaxIterations: 1}
}

// Run executes the test-and-repair flow. Each iteration is one
// microprogrammed engine run: pass 1 captures faulty rows into the
// TLB, the SetPass transition flips the RAM into Map mode, and pass 2
// re-tests through the mapping. If pass 2 fails (Repair Unsuccessful)
// and more iterations are allowed, the cycle repeats with capture
// active through the map — replacing faulty spares via the strictly
// increasing spare sequence.
//
// After a successful run the RAM is left in Map mode, ready for
// normal operation.
func (c *Controller) Run() (*Outcome, error) {
	return c.RunCtx(context.Background())
}

// RunCtx is Run with cooperative cancellation. The context is threaded
// into every engine run (checked every few thousand emulated cycles)
// and re-checked between iterations; on expiry the controller returns
// the partial Outcome accumulated so far together with a typed
// cerr.ErrBudgetExceeded, so callers can still report how far the
// iterated repair got.
func (c *Controller) RunCtx(ctx context.Context) (*Outcome, error) {
	out := &Outcome{}
	var endSpan func(...obs.Attr)
	ctx, endSpan = obs.Start(ctx, "bisr.run")
	defer func() {
		endSpan(obs.Int("iterations", out.Iterations),
			obs.Int("captures", out.Captures),
			obs.Bool("repaired", out.Repaired))
	}()
	iters := c.MaxIterations
	if iters <= 0 {
		iters = 1
	}
	bpw := c.RAM.Arr.Config().BPW
	prog, err := bist.Assemble(c.Test)
	if err != nil {
		return nil, err
	}
	// colRows[c] is the set of rows whose captures implicated physical
	// column c, accumulated across iterations for the column-failure
	// diagnosis.
	colRows := map[int]map[int]bool{}
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return out, cerr.Wrap(cerr.CodeBudgetExceeded, err,
				"bisr: repair cancelled after %d iterations", it)
		}
		if it == 0 {
			c.RAM.Mode = Bypass
		} else {
			// Iterated repair: test through the existing mapping.
			c.RAM.Mode = Map
		}
		eng := bist.NewEngine(prog, c.RAM, bpw)
		captureEnabled := true
		// Failing incoming rows are accumulated during pass 1 and
		// committed to the TLB at the pass transition; committing
		// mid-march would redirect later pass-1 accesses of the same
		// row to a not-yet-written spare and cascade spurious
		// failures.
		failedRows := map[int]bool{}
		var rowOrder []int
		eng.OnCapture = func(cp bist.Capture) {
			if !captureEnabled {
				return
			}
			out.Captures++
			cfg := c.RAM.Arr.Config()
			row := cp.Addr / cfg.BPC
			if !failedRows[row] {
				failedRows[row] = true
				rowOrder = append(rowOrder, row)
			}
			// Column diagnosis: record which physical columns the
			// miscompared bits sit on.
			cs := cp.Addr % cfg.BPC
			diff := cp.Got ^ cp.Want
			for b := 0; b < cfg.BPW && diff != 0; b++ {
				if diff&(1<<uint(b)) != 0 {
					col := b*cfg.BPC + cs
					if colRows[col] == nil {
						colRows[col] = map[int]bool{}
					}
					colRows[col][row] = true
				}
			}
		}
		eng.OnPass2 = func() {
			captureEnabled = false
			for _, row := range rowOrder {
				if _, err := c.RAM.TLB.Store(row); err != nil {
					out.Overflow = true
					break
				}
			}
			c.RAM.Mode = Map
		}
		stats, err := eng.RunCtx(ctx, maxCyclesFor(c.RAM.Words(), bpw, c.Test))
		if stats != nil {
			out.Stats = append(out.Stats, *stats)
		}
		if err != nil {
			out.SparesUsed = c.RAM.TLB.Used()
			return out, cerr.Wrap(cerr.CodeInternal, err, "bisr: iteration %d", it)
		}
		out.Iterations = it + 1
		out.SparesUsed = c.RAM.TLB.Used()
		if !stats.Unsucc {
			out.Repaired = true
			c.RAM.Mode = Map
			c.diagnoseColumns(out, colRows)
			return out, nil
		}
		if c.RAM.TLB.Overflow() {
			out.Overflow = true
			break
		}
	}
	c.RAM.Mode = Map
	c.diagnoseColumns(out, colRows)
	return out, nil
}

// diagnoseColumns flags physical columns whose failures span more
// rows than the spare budget — the signature of a bitline defect that
// swamps row redundancy.
func (c *Controller) diagnoseColumns(out *Outcome, colRows map[int]map[int]bool) {
	spares := c.RAM.Arr.Config().SpareRows
	for col, rows := range colRows {
		if len(rows) > spares {
			out.ColumnSuspects = append(out.ColumnSuspects, col)
		}
	}
	sort.Ints(out.ColumnSuspects)
}

// maxCyclesFor bounds the engine run generously: ops per address per
// background per pass, times backgrounds, times two passes, plus
// bookkeeping states.
func maxCyclesFor(words, bpw int, t march.Test) int64 {
	perPass := int64(t.OpCount()+4) * int64(words) * int64(bpw+2)
	return 2*perPass + 10_000
}
