package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/compiler"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/tech"
)

// parallelTestServer is testServer with the compile-parallelism
// default configured (the -compile-par knob of bisramgend).
func parallelTestServer(t *testing.T, par int) (*httptest.Server, *Server) {
	t.Helper()
	q := jobs.New(jobs.Config{Workers: 2, Deadline: time.Minute})
	var logBuf bytes.Buffer
	s := New(Config{
		Queue: q, Cache: cache.New(1 << 20),
		LogWriter:          &syncWriter{buf: &logBuf},
		CompileParallelism: par,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		q.Shutdown(ctx)
	})
	return ts, s
}

// TestParallelCompileMetrics: a compile under a configured
// parallelism default surfaces the compile_parallel_stages_total
// counter and the compile_parallelism histogram on /metrics.
func TestParallelCompileMetrics(t *testing.T) {
	ts, _ := parallelTestServer(t, 8)
	req := `{"words":256,"bpw":8,"bpc":4,"spares":4,"refine_iterations":500}`
	if code, m := postCompile(t, ts, req, ""); code != 200 {
		t.Fatalf("compile %d: %v", code, m)
	}
	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	for _, want := range []string{
		"# TYPE compile_parallel_stages_total counter",
		"# TYPE compile_parallelism histogram",
		`compile_parallelism_bucket{le="8"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// With par>1 three stage groups fanned out: the layout beside the
	// analysis transients, the macro builders, and (RefineIterations>1)
	// the floorplan's annealing starts.
	if !strings.Contains(body, "compile_parallel_stages_total 3") {
		t.Errorf("want 3 parallel stage groups, exposition:\n%s",
			grepLines(body, "compile_parallel"))
	}
}

// TestSweepSeamAppliesParallelismDefault: sweep points reach the
// backend's Run seam with Parallelism 0, as a request that names none
// reaches POST /v1/compile. The configured default (bisramgend
// -compile-par) must apply to both, so a standalone daemon's sweep
// compiles fan out as its interactive ones do.
func TestSweepSeamAppliesParallelismDefault(t *testing.T) {
	_, s := parallelTestServer(t, 3)
	p := compiler.Params{Words: 256, BPW: 8, BPC: 4, Spares: 4, BufSize: 1, StrapCells: 32, Process: tech.CDA07}
	key, err := canon.KeyOfParams(p)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("sweep")
	if _, err := s.backend.Run(obs.WithTrace(context.Background(), tr), key, canon.Request{}, p); err != nil {
		t.Fatal(err)
	}
	got := ""
	for _, sp := range tr.Spans() {
		if sp.Name != "compile" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "parallelism" {
				got = a.Value
			}
		}
	}
	if got != "3" {
		t.Fatalf("sweep compile ran at parallelism %q, want the configured default 3", got)
	}
}

// TestParallelismAliasesToOneCacheEntry: the same design requested
// with different parallelism knobs must share one content key, so the
// second request is a cache hit, not a second compile.
func TestParallelismAliasesToOneCacheEntry(t *testing.T) {
	ts, _ := parallelTestServer(t, 0) // no server default; knob from requests
	serial := `{"words":256,"bpw":8,"bpc":4,"spares":4,"parallelism":1}`
	par := `{"words":256,"bpw":8,"bpc":4,"spares":4,"parallelism":16}`
	code, first := postCompile(t, ts, serial, "")
	if code != 200 {
		t.Fatalf("serial compile %d: %v", code, first)
	}
	code, second := postCompile(t, ts, par, "")
	if code != 200 {
		t.Fatalf("parallel compile %d: %v", code, second)
	}
	if first["key"] != second["key"] {
		t.Fatalf("keys diverged: %v vs %v", first["key"], second["key"])
	}
	if cached, _ := second["cached"].(bool); !cached {
		t.Fatalf("parallel request should hit the serial compile's cache entry: %v", second)
	}
}

// grepLines filters lines containing sub (test-failure forensics).
func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestSweepJobsTraced: sweep points are jobs like any other, so each
// carries a trace. A standalone daemon's two-point sweep folds both
// compiles' stage spans into the stage histogram and the fan-out
// counter, and each sweep job's trace is served with its queue wait
// and compile spans.
func TestSweepJobsTraced(t *testing.T) {
	ts, _ := parallelTestServer(t, 2)
	cl := sweep.NewClient(ts.URL)
	st, err := cl.CreateSweep(sweep.Spec{
		Base: canon.Request{Words: 256, BPW: 8, BPC: 4, Spares: 4},
		Axes: sweep.Axes{Spares: []int{0, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if st, err = cl.WaitSweep(ctx, st.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.UniqueCompiles != 2 {
		t.Fatalf("sweep status %+v", st)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	if want := `compile_stage_duration_seconds_count{stage="compile"} 2`; !strings.Contains(body, want) {
		t.Errorf("exposition missing %q:\n%s", want, grepLines(body, `stage="compile"`))
	}
	var stages float64
	for _, l := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(l, "compile_parallel_stages_total "); ok {
			stages, _ = strconv.ParseFloat(v, 64)
		}
	}
	if stages <= 0 {
		t.Errorf("sweep compiles counted no parallel stages:\n%s", grepLines(body, "compile_parallel_stages_total"))
	}

	for _, pt := range st.Points {
		resp, err := http.Get(ts.URL + "/v1/debug/traces/" + pt.JobID + "?format=spans")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace of sweep job %q: status %d: %s", pt.JobID, resp.StatusCode, raw)
		}
		ss, err := obs.ParseSpanSet(raw)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, sp := range ss.Spans {
			names[sp.Name] = true
		}
		if !names["queue.wait"] || !names["compile"] {
			t.Errorf("trace of sweep job %s lacks queue.wait or compile: %v", pt.JobID, names)
		}
	}
}
