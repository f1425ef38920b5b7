package compiler

import (
	"context"
	"testing"
	"time"

	"repro/internal/cerr"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/tech"
)

// TestCompileNoSparesParallel covers the DAG shape without the TLB
// branch (Spares == 0 skips the second transient).
func TestCompileNoSparesParallel(t *testing.T) {
	p := Params{
		Words: 256, BPW: 8, BPC: 4, Spares: 0, BufSize: 1,
		StrapCells: 32, Process: tech.CDA07, Parallelism: 4,
	}
	resetAnalysisMemo()
	d, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Timing.TLBNs != 0 || d.Timing.TLBMaskable {
		t.Fatalf("no-spares compile grew TLB timing: %+v", d.Timing)
	}
}

func TestValidateParallelismEnvelope(t *testing.T) {
	p := Params{
		Words: 256, BPW: 8, BPC: 4, Spares: 4, BufSize: 1,
		StrapCells: 32, Process: tech.CDA07,
	}
	p.Parallelism = -1
	if cerr.CodeOf(p.Validate()) != cerr.CodeInvalidParams {
		t.Fatal("negative parallelism must be rejected")
	}
	p.Parallelism = maxParallelism + 1
	if cerr.CodeOf(p.Validate()) != cerr.CodeInvalidParams {
		t.Fatal("over-cap parallelism must be rejected")
	}
	p.Parallelism = maxParallelism
	if err := p.Validate(); err != nil {
		t.Fatalf("cap value should validate: %v", err)
	}
}

// TestFloorplanErrorJoinsTransients: the analysis transients start
// before the macros and run beside the layout stages. A floorplan
// stage that fails while they still run (a chaos delay holds them at
// their checkpoint) must report the floorplan's error, and the
// transients must have finished — their timing.* spans recorded —
// before CompileCtx returns: no branch outlives the call.
func TestFloorplanErrorJoinsTransients(t *testing.T) {
	for _, par := range []int{2, 8} {
		inj, err := chaos.Parse([]byte(`{"rules":[
			{"point":"compile.stage.timing","mode":"delay","delay_ms":100},
			{"point":"compile.stage.floorplan","mode":"error"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		resetAnalysisMemo()
		tr := obs.NewTrace("join")
		ctx := chaos.WithContext(obs.WithTrace(context.Background(), tr), inj)
		p := Params{Words: 256, BPW: 8, BPC: 4, Spares: 4, BufSize: 1, StrapCells: 32,
			Process: tech.CDA07, Parallelism: par}
		if _, err := CompileCtx(ctx, p); cerr.StageOf(err) != "floorplan" {
			t.Fatalf("par %d: err = %v, want the floorplan stage's injected error", par, err)
		}
		var macrosEnd time.Time
		timing := map[string]time.Time{}
		for _, sp := range tr.Spans() {
			switch sp.Name {
			case "compile.macros":
				macrosEnd = sp.Start.Add(sp.Dur)
			case "timing.access", "timing.tlb":
				timing[sp.Name] = sp.Start.Add(sp.Dur)
			}
		}
		if macrosEnd.IsZero() || len(timing) != 2 {
			t.Fatalf("par %d: compile.macros ended %v, timing spans %v: want both transients recorded", par, macrosEnd, timing)
		}
		for name, end := range timing {
			if !end.After(macrosEnd) {
				t.Errorf("par %d: %s ended before compile.macros did; it was not running when the floorplan failed", par, name)
			}
		}
	}
}
