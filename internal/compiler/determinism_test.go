package compiler_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/server"
	"repro/internal/tech"
)

// TestCompileParallelDeterminism is the concurrency contract: a compile
// with the concurrency knob open must produce byte-identical output to
// a fully serial compile of the same Params, because the
// content-addressed cache (internal/canon + internal/store) hashes
// only Params and replays cached bytes regardless of how a compile
// was scheduled. Every artifact the daemon caches is compared — the
// report, datasheet.txt, both TRPLA planes, layout.svg and layout.gds,
// rendered by server.RenderEntry, which fans out under the same knob —
// at Parallelism 1, 2 and 8, over every deck, spares 0 and 16 and
// refine budgets 0 and 8000. Each compile starts from an empty
// analysis memo, so the concurrent transients run every time. Run
// under -race this also exercises the concurrent stage DAG for data
// races.
func TestCompileParallelDeterminism(t *testing.T) {
	cases := []compiler.Params{{
		Words: 256, BPW: 8, BPC: 4, Spares: 4, BufSize: 1,
		StrapCells: 32, Process: tech.CDA07, RefineIterations: 2000,
	}}
	for _, proc := range []*tech.Process{tech.CDA05, tech.CDA07, tech.MOS06} {
		for _, spares := range []int{0, 16} {
			for _, refine := range []int{0, 8000} {
				cases = append(cases, compiler.Params{
					Words: 256, BPW: 8, BPC: 4, Spares: spares, BufSize: 1,
					StrapCells: 32, Process: proc, RefineIterations: refine,
				})
			}
		}
	}
	wantArtifacts := []string{"datasheet.json", "datasheet.txt", "layout.gds", "layout.svg", "trpla_and.plane", "trpla_or.plane"}
	for _, base := range cases {
		name := fmt.Sprintf("%s/s%d/it%d", base.Process.Name, base.Spares, base.RefineIterations)
		t.Run(name, func(t *testing.T) {
			compile := func(par int) (*compiler.Design, string, *cache.Entry) {
				t.Helper()
				p := base
				p.Parallelism = par
				compiler.ResetAnalysisMemo()
				d, err := compiler.Compile(p)
				if err != nil {
					t.Fatal(err)
				}
				js, err := d.JSON()
				if err != nil {
					t.Fatal(err)
				}
				e, err := server.RenderEntry("key", d)
				if err != nil {
					t.Fatal(err)
				}
				return d, js, e
			}
			ds, js, es := compile(1)
			names := make([]string, 0, len(es.Artifacts))
			for n := range es.Artifacts {
				names = append(names, n)
			}
			slices.Sort(names)
			if !slices.Equal(names, wantArtifacts) {
				t.Fatalf("serial entry has artifacts %v, want %v", names, wantArtifacts)
			}
			for _, par := range []int{2, 8} {
				dp, jp, ep := compile(par)
				if js != jp {
					t.Fatalf("par %d: compile diverged from serial:\nserial:\n%s\nparallel:\n%s", par, js, jp)
				}
				// The layouts must agree too, not just the datasheet.
				if ds.Plan == nil || dp.Plan == nil {
					t.Fatal("expected full floorplans")
				}
				if ds.Plan.Area != dp.Plan.Area || ds.Plan.Wirelength != dp.Plan.Wirelength {
					t.Fatalf("par %d: floorplan diverged: %d/%d vs %d/%d", par,
						ds.Plan.Area, ds.Plan.Wirelength, dp.Plan.Area, dp.Plan.Wirelength)
				}
				for name, pl := range ds.Plan.Placements {
					if dp.Plan.Placements[name] != pl {
						t.Fatalf("par %d: placement of %q diverged: %+v vs %+v", par, name, pl, dp.Plan.Placements[name])
					}
				}
				if !bytes.Equal(es.Report, ep.Report) || es.Degraded != ep.Degraded {
					t.Fatalf("par %d: entry report diverged from serial", par)
				}
				if len(ep.Artifacts) != len(es.Artifacts) {
					t.Fatalf("par %d: %d artifacts, serial has %d", par, len(ep.Artifacts), len(es.Artifacts))
				}
				for name, want := range es.Artifacts {
					if !bytes.Equal(ep.Artifacts[name], want) {
						t.Errorf("par %d: artifact %s diverged from serial (%d vs %d bytes)",
							par, name, len(ep.Artifacts[name]), len(want))
					}
				}
			}
		})
	}
}
