package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile is the repository's BENCHMARK.json, in the shape the
// tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metric and
// workload tables the binary prints from in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file %q/%q, code %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var e2e []string
	for _, m := range f.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !slices.Equal(e2e, endToEndNames) {
		t.Errorf("end_to_end %v, code %v", e2e, endToEndNames)
	}
	var layers []layerMetric
	for _, m := range layerMetrics {
		if m.driver {
			layers = append(layers, m)
		}
	}
	if len(f.PerLayer) != len(layers) {
		t.Fatalf("per_layer lists %d metrics, the code %d", len(f.PerLayer), len(layers))
	}
	for i, m := range f.PerLayer {
		if c := layers[i]; m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per_layer %d: file %+v, code %s %s %s", i, m, c.name, c.unit, c.better)
		}
	}
}

// firstBodies returns the first n request bodies a workload's first
// client sends for seed, built the way the workload builds them.
func firstBodies(t *testing.T, workload string, seed uint64, n int) [][]byte {
	t.Helper()
	var out [][]byte
	must := func(op compileOp, err error) compileOp {
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	switch workload {
	case "cold-compile":
		d := newDrawer(seed, streamCold)
		for len(out) < n {
			out = append(out, must(d.nextOp()).body)
		}
	case "hit-serve", "mixed-rw":
		d := newDrawer(seed, streamWorkingSet)
		set := make([]compileOp, 256)
		for i := range set {
			set[i] = must(d.nextOp())
		}
		if workload == "mixed-rw" { // the writer continues the working set's stream
			for len(out) < n {
				out = append(out, must(d.nextOp()).body)
			}
			break
		}
		r := newZipfReader(seed, 0, set)
		for len(out) < n {
			out = append(out, r.next().body)
		}
	case "fleet-sweep":
		d := newDrawer(seed, streamFleet)
		for len(out) < n {
			it, err := d.nextIteration()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, it.compile.body, it.sweep, it.mc)
		}
	}
	return out[:n]
}

func digest(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRequestsArePureFunctionOfSeed pins the generator: the first 64
// bodies of each workload hash to a fixed digest at seed 1, repeat
// exactly, and change with the seed.
func TestRequestsArePureFunctionOfSeed(t *testing.T) {
	golden := map[string]string{
		"cold-compile": "1043aeb08581410e3620a84efb196ac278809ed5f2573a4421dfcd06f40af502",
		"hit-serve":    "b74795ba8bf46c596fd0c077a31290844daa984dc3890a2e40156819b173749e",
		"mixed-rw":     "714cf1ebf41b6d7479fd81fa3d6571ff8b19a3ea6b3ab21e86f48d5935314838",
		"fleet-sweep":  "1aa95d3b8df06f6608c3ef91424bca9e5bcc1a989f3b70541ec72d6539a84751",
	}
	for _, w := range workloads {
		got := digest(firstBodies(t, w.name, 1, 64))
		if again := digest(firstBodies(t, w.name, 1, 64)); again != got {
			t.Errorf("%s: two generations at seed 1 differ", w.name)
		}
		if other := digest(firstBodies(t, w.name, 2, 64)); other == got {
			t.Errorf("%s: seeds 1 and 2 generate the same bodies", w.name)
		}
		if got != golden[w.name] {
			t.Errorf("%s: first 64 bodies hash to %s, golden %s", w.name, got, golden[w.name])
		}
	}
}

// TestColdDrawsNeverRepeat checks draws are without replacement, and
// every drawn geometry resolves to a distinct content key.
func TestColdDrawsNeverRepeat(t *testing.T) {
	d := newDrawer(7, streamCold)
	keys := map[string]bool{}
	for i := 0; i < 1000; i++ {
		op, err := d.nextOp()
		if err != nil {
			t.Fatal(err)
		}
		if keys[op.key] {
			t.Fatalf("draw %d repeats key %s", i, op.key)
		}
		keys[op.key] = true
	}
}

// TestWorkloadsAtSmallScale runs every workload untraced and traced at
// -scale 0.02 and checks that each prints every metric BENCHMARK.json
// names, with its unit, and that the daemon workloads make no errors.
func TestWorkloadsAtSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service stack")
	}
	t.Setenv("TMPDIR", t.TempDir())
	f := readBenchmarkFile(t)
	units := map[string]string{}
	for _, m := range f.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opts := options{workload: w.name, seed: 1, scale: 0.02, compilePar: 2}
			want := endToEndNames
			if traced {
				opts.traceDir = t.TempDir()
				want = layerNames()
			}
			res, err := runWorkload(opts)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			var out bytes.Buffer
			if err := report(&out, res, false); err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			printed := out.String()
			lines := strings.Split(strings.TrimSpace(printed), "\n")
			for _, name := range want {
				if !slices.ContainsFunc(lines, func(l string) bool {
					f := strings.Fields(l)
					return len(f) == 3 && f[0] == name && f[2] == units[name]
				}) {
					t.Errorf("%s traced=%t: no %q line with unit %s", w.name, traced, name, units[name])
				}
			}
			var summary struct {
				Correct bool                       `json:"correct"`
				Metrics map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
				t.Fatalf("%s: last line is not the summary: %v", w.name, err)
			}
			if len(summary.Metrics) != len(want) {
				t.Errorf("%s traced=%t: summary has %d metrics, want %d", w.name, traced, len(summary.Metrics), len(want))
			}
			if traced {
				for _, file := range []string{"layers.json", "trace.json"} {
					if _, err := os.Stat(filepath.Join(opts.traceDir, file)); err != nil {
						t.Errorf("%s: %v", w.name, err)
					}
				}
			}
			if w.name != "fleet-sweep" {
				if m, _ := res.value("error_rate"); m.Value != 0 || !summary.Correct {
					t.Errorf("%s traced=%t: error_rate %g, failures %+v", w.name, traced, m.Value, res.Failures)
				}
			}
		}
	}
}
