package compiler

import (
	"testing"

	"repro/internal/cerr"
	"repro/internal/tech"
)

// TestCompileParallelDeterminism is the tentpole contract: a compile
// with the concurrency knob wide open must produce byte-identical
// output to a fully serial compile of the same Params, because the
// content-addressed cache (internal/canon + internal/store) hashes
// only Params and replays cached bytes regardless of how a compile
// was scheduled. Run under -race this also exercises the concurrent
// stage DAG for data races.
func TestCompileParallelDeterminism(t *testing.T) {
	base := Params{
		Words: 256, BPW: 8, BPC: 4, Spares: 4, BufSize: 1,
		StrapCells: 32, Process: tech.CDA07, RefineIterations: 2000,
	}
	serial := base
	serial.Parallelism = 1
	parallel := base
	parallel.Parallelism = 8

	// Each compile starts from an empty analysis memo; otherwise the
	// second would be served from it and the concurrent transients
	// would never run under -race.
	resetAnalysisMemo()
	ds, err := Compile(serial)
	if err != nil {
		t.Fatal(err)
	}
	resetAnalysisMemo()
	dp, err := Compile(parallel)
	if err != nil {
		t.Fatal(err)
	}
	js, err := ds.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jp, err := dp.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if js != jp {
		t.Fatalf("parallel compile diverged from serial:\nserial:\n%s\nparallel:\n%s", js, jp)
	}
	// The layouts must agree too, not just the datasheet.
	if ds.Plan == nil || dp.Plan == nil {
		t.Fatal("expected full floorplans")
	}
	if ds.Plan.Area != dp.Plan.Area || ds.Plan.Wirelength != dp.Plan.Wirelength {
		t.Fatalf("floorplan diverged: %d/%d vs %d/%d",
			ds.Plan.Area, ds.Plan.Wirelength, dp.Plan.Area, dp.Plan.Wirelength)
	}
	for name, pl := range ds.Plan.Placements {
		if dp.Plan.Placements[name] != pl {
			t.Fatalf("placement of %q diverged: %+v vs %+v", name, pl, dp.Plan.Placements[name])
		}
	}
}

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
