package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/jobs"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestDebugTraceEndpoint: a compiled job's trace is retrievable as
// Chrome trace-event JSON (default) and as an indented tree, and an
// unknown id is a 404.
func TestDebugTraceEndpoint(t *testing.T) {
	ts, _, _, _ := testServer(t, jobs.Config{}, 1<<20)
	code, m := postCompile(t, ts, smallReq, "")
	if code != 200 {
		t.Fatalf("compile %d: %v", code, m)
	}
	jobID, _ := m["job_id"].(string)
	if jobID == "" {
		t.Fatalf("no job_id in response: %v", m)
	}

	resp, err := http.Get(ts.URL + "/v1/debug/traces/" + jobID)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("trace %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, raw)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"queue.wait", "compile", "compile.params", "compile.floorplan", "compile.analysis"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}

	// Tree format.
	resp2, err := http.Get(ts.URL + "/v1/debug/traces/" + jobID + "?format=tree")
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != 200 || !bytes.Contains(tree, []byte("compile")) {
		t.Fatalf("tree %d: %s", resp2.StatusCode, tree)
	}

	// Unknown id.
	resp3, err := http.Get(ts.URL + "/v1/debug/traces/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != 404 {
		t.Fatalf("unknown trace id: %d", resp3.StatusCode)
	}
}

// TestMetricsPrometheusExposition: after one compile the text
// exposition carries nonzero stage histograms plus the runtime gauges
// (uptime, goroutines, build info) of satellite 2.
func TestMetricsPrometheusExposition(t *testing.T) {
	ts, _, _, _ := testServer(t, jobs.Config{}, 1<<20)
	if code, _ := postCompile(t, ts, smallReq, ""); code != 200 {
		t.Fatal("compile failed")
	}
	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE compile_stage_duration_seconds histogram",
		`compile_stage_duration_seconds_bucket{stage="compile"`,
		"# TYPE compile_duration_seconds histogram",
		"# TYPE http_requests_total counter",
		"# TYPE uptime_seconds gauge",
		"# TYPE go_goroutines gauge",
		"build_info{",
		"go_version=",
		"compile_cache_misses_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The compile stage histogram must have counted at least one
	// observation (nonzero +Inf bucket).
	re := regexp.MustCompile(`compile_stage_duration_seconds_bucket\{stage="compile",le="\+Inf"\} (\d+)`)
	match := re.FindStringSubmatch(body)
	if match == nil {
		t.Fatalf("no +Inf bucket for stage=compile:\n%s", body)
	}
	if n, _ := strconv.Atoi(match[1]); n < 1 {
		t.Fatalf("stage=compile bucket count %d, want >= 1", n)
	}
}

// fakeCluster is a canned ClusterInfo for exposition tests.
type fakeCluster struct{}

func (fakeCluster) Self() string        { return "http://shard-a:8047" }
func (fakeCluster) Gateway() string     { return "http://gate:8040" }
func (fakeCluster) RingVersion() uint64 { return 7 }
func (fakeCluster) PeersUp() int        { return 2 }
func (fakeCluster) PeersTotal() int     { return 3 }

// TestMetricsClusterAndPeerFetchExposition: a federated shard exports
// the cluster gauges and the labeled peer-fetch counter family in the
// Prometheus text exposition, and /healthz carries its shard identity.
func TestMetricsClusterAndPeerFetchExposition(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	q := jobs.New(jobs.Config{Workers: 1, Deadline: time.Minute})
	defer q.Shutdown(nil2())
	s := New(Config{Queue: q, Cache: cache.New(1 << 20), Store: st, Cluster: fakeCluster{}})
	ts := newHTTPServer(t, s)

	resp, err := http.Get(ts + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	for _, want := range []string{
		"# TYPE cluster_ring_version gauge",
		"cluster_ring_version 7",
		"cluster_peers_up 2",
		"cluster_peers_total 3",
		"# TYPE store_peer_fetch_total counter",
		`store_peer_fetch_total{outcome="hit"} 0`,
		`store_peer_fetch_total{outcome="miss"} 0`,
		`store_peer_fetch_total{outcome="corrupt"} 0`,
		"# TYPE store_hits_total counter",
		"# TYPE store_misses_total counter",
		"# TYPE store_evictions_total counter",
		"# TYPE store_corrupt_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// One family header even though three const-labeled series share it.
	if n := strings.Count(body, "# TYPE store_peer_fetch_total counter"); n != 1 {
		t.Errorf("store_peer_fetch_total TYPE header repeated %d times", n)
	}

	code, hz := getJSON(t, ts+"/healthz")
	if code != 200 {
		t.Fatalf("healthz %d", code)
	}
	if hz["role"] != "shard" || hz["self"] != "http://shard-a:8047" {
		t.Fatalf("healthz identity: %v", hz)
	}
	if hz["ring_version"].(float64) != 7 || hz["peers_up"].(float64) != 2 || hz["peers_total"].(float64) != 3 {
		t.Fatalf("healthz fleet view: %v", hz)
	}
}

// TestMetricsJSONCarriesObs: the default JSON document folds in the
// obs registry snapshot.
func TestMetricsJSONCarriesObs(t *testing.T) {
	ts, _, _, _ := testServer(t, jobs.Config{}, 1<<20)
	postCompile(t, ts, smallReq, "")
	code, m := getJSON(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics %d", code)
	}
	obsDoc, ok := m["obs"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing obs snapshot: %v", m)
	}
	for _, k := range []string{"http_requests_total", "compile_duration_seconds", "uptime_seconds"} {
		if _, ok := obsDoc[k]; !ok {
			t.Errorf("obs snapshot missing %q", k)
		}
	}
}

// TestPprofGated: /debug/pprof/ is a 404 unless EnablePprof is set.
func TestPprofGated(t *testing.T) {
	ts, _, _, _ := testServer(t, jobs.Config{}, 1<<20)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("pprof without flag: %d, want 404", resp.StatusCode)
	}

	q := jobs.New(jobs.Config{Workers: 1, Deadline: time.Minute})
	defer q.Shutdown(nil2())
	s := New(Config{Queue: q, Cache: cache.New(1 << 20), EnablePprof: true})
	ts2 := newHTTPServer(t, s)
	resp2, err := http.Get(ts2 + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("pprof with flag: %d, want 200", resp2.StatusCode)
	}
}

// TestSlowCompileLog: a compile slower than the threshold dumps its
// span tree to the slow log and bumps the counter.
func TestSlowCompileLog(t *testing.T) {
	q := jobs.New(jobs.Config{Workers: 1, Deadline: time.Minute})
	defer q.Shutdown(nil2())
	var slow bytes.Buffer
	reg := obs.NewRegistry()
	s := New(Config{
		Queue: q, Cache: cache.New(1 << 20), Metrics: reg,
		SlowCompile:   time.Nanosecond, // everything is slow
		SlowLogWriter: &syncWriter{buf: &slow},
	})
	ts := newHTTPServer(t, s)
	resp, err := http.Post(ts+"/v1/compile", "application/json", strings.NewReader(smallReq))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("compile %d", resp.StatusCode)
	}
	out := slow.String()
	if !strings.Contains(out, "SLOW COMPILE") || !strings.Contains(out, "compile.floorplan") {
		t.Fatalf("slow log missing span tree:\n%s", out)
	}
	var expo strings.Builder
	reg.WritePrometheus(&expo)
	if !strings.Contains(expo.String(), "compile_slow_total 1") {
		t.Fatalf("slow counter not bumped:\n%s", expo.String())
	}
}

// nil2 returns a background context for queue shutdown in tests.
func nil2() context.Context { return context.Background() }

// newHTTPServer wires a Server onto a test listener with cleanup.
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// memoCounts scrapes memo_{hits,misses}_total per table from the
// Prometheus exposition: table -> {hits, misses}.
func memoCounts(t *testing.T, url string) map[string][2]int {
	t.Helper()
	resp, err := http.Get(url + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := map[string][2]int{}
	re := regexp.MustCompile(`(?m)^memo_(hits|misses)_total\{table="([^"]+)"\} (\d+)$`)
	for _, m := range re.FindAllStringSubmatch(string(raw), -1) {
		n, _ := strconv.Atoi(m[3])
		c := out[m[2]]
		if m[1] == "hits" {
			c[0] = n
		} else {
			c[1] = n
		}
		out[m[2]] = c
	}
	return out
}

// TestMemoCounters compiles two geometries that share a decode circuit
// (same deck, buffer size and row count; different word width and
// spare count) from empty memo tables and requires the exported
// counters to move by exactly what each table served.
func TestMemoCounters(t *testing.T) {
	ts, _, _, _ := testServer(t, jobs.Config{}, 1<<20)
	for _, tb := range memo.Tables() {
		tb.Reset()
	}
	before := memoCounts(t, ts.URL)
	for _, body := range []string{
		`{"words":256,"bpw":8,"bpc":4,"spares":4}`,
		`{"words":256,"bpw":16,"bpc":4,"spares":8}`,
	} {
		if code, m := postCompile(t, ts, body, ""); code != 200 {
			t.Fatalf("compile %s: %d %v", body, code, m)
		}
	}
	after := memoCounts(t, ts.URL)
	want := map[string][2]int{ // table -> {hits, misses}
		"leafcell":      {1, 1},
		"timing.access": {1, 1},
		"timing.tlb":    {0, 2},
		"mcyield":       {0, 0},
	}
	for table, w := range want {
		a, ok := after[table]
		if !ok {
			t.Errorf("exposition has no memo counters for table %q", table)
			continue
		}
		b := before[table]
		if got := [2]int{a[0] - b[0], a[1] - b[1]}; got != w {
			t.Errorf("table %q moved {hits, misses} by %v, want %v", table, got, w)
		}
	}
}
