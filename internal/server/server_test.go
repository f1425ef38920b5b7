package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cerr"
	"repro/internal/jobs"
)

// testServer spins up a full stack on an httptest server.
func testServer(t *testing.T, qcfg jobs.Config, cacheBytes int64) (*httptest.Server, *Server, *jobs.Queue, *bytes.Buffer) {
	t.Helper()
	if qcfg.Workers == 0 {
		qcfg.Workers = 2
	}
	if qcfg.Deadline == 0 {
		qcfg.Deadline = time.Minute
	}
	q := jobs.New(qcfg)
	var logBuf bytes.Buffer
	s := New(Config{Queue: q, Cache: cache.New(cacheBytes), LogWriter: &syncWriter{buf: &logBuf}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		q.Shutdown(ctx)
	})
	return ts, s, q, &logBuf
}

// syncWriter makes the shared log buffer race-safe for test readers.
type syncWriter struct {
	mu  sync.Mutex
	buf *bytes.Buffer
}

func (w *syncWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(b)
}

const smallReq = `{"words":256,"bpw":8,"bpc":4,"spares":4}`

func postCompile(t *testing.T, ts *httptest.Server, body string, query string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/compile"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("bad JSON (%d): %s", resp.StatusCode, raw)
	}
	return resp.StatusCode, unwrap(m)
}

// unwrap peels the uniform /v1 envelope: a "job", "sweep" or "data"
// payload is returned directly; error envelopes (and non-enveloped
// documents like /healthz and /metrics) pass through whole.
func unwrap(m map[string]any) map[string]any {
	for _, member := range []string{"job", "sweep", "data"} {
		if p, ok := m[member].(map[string]any); ok {
			return p
		}
	}
	return m
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("bad JSON (%d): %s", resp.StatusCode, raw)
	}
	return resp.StatusCode, unwrap(m)
}

func TestCompileSyncAndCacheHit(t *testing.T) {
	ts, _, _, _ := testServer(t, jobs.Config{}, 64<<20)

	status, first := postCompile(t, ts, smallReq, "")
	if status != http.StatusOK {
		t.Fatalf("first POST: %d %v", status, first)
	}
	if first["cached"].(bool) {
		t.Fatal("first POST cannot be cached")
	}
	key := first["key"].(string)
	if len(key) != 64 {
		t.Fatalf("key %q", key)
	}
	if _, ok := first["report"].(map[string]any); !ok {
		t.Fatal("report missing from sync response")
	}

	status, second := postCompile(t, ts, smallReq, "")
	if status != http.StatusOK {
		t.Fatalf("second POST: %d", status)
	}
	if !second["cached"].(bool) {
		t.Fatal("second identical POST must be served from cache")
	}
	if second["key"].(string) != key {
		t.Fatal("key changed between identical posts")
	}
	// The cached report must be byte-identical content.
	r1, _ := json.Marshal(first["report"])
	r2, _ := json.Marshal(second["report"])
	if !bytes.Equal(r1, r2) {
		t.Fatal("cached report differs from computed report")
	}

	_, metrics := getJSON(t, ts.URL+"/metrics")
	cacheStats := metrics["cache"].(map[string]any)
	if cacheStats["hits"].(float64) < 1 {
		t.Fatalf("cache hits not counted: %v", cacheStats)
	}
	hits := metrics["obs"].(map[string]any)["compile_cache_hits_total"]
	if hits.(float64) < 1 {
		t.Fatalf("compile_cache_hits_total = %v, want >= 1", hits)
	}
}

func TestSemanticAliasesShareCacheEntry(t *testing.T) {
	ts, _, _, _ := testServer(t, jobs.Config{}, 64<<20)
	if code, _ := postCompile(t, ts, smallReq, ""); code != 200 {
		t.Fatal("seed compile failed")
	}
	// Same compile with every default spelled out must hit.
	explicit := `{"words":256,"bpw":8,"bpc":4,"spares":4,"process":"cda07u3m1p","corner":"typ","test":"ifa9","bufsize":2}`
	code, resp := postCompile(t, ts, explicit, "")
	if code != 200 || !resp["cached"].(bool) {
		t.Fatalf("explicit-defaults request missed the cache: %d %v", code, resp["cached"])
	}
}

func TestBadRequestsMapToHTTPStatuses(t *testing.T) {
	ts, _, _, _ := testServer(t, jobs.Config{}, 1<<20)
	cases := []struct {
		body   string
		status int
		code   string
	}{
		{`not json`, 400, "ERR_INVALID_PARAMS"},
		{`{"wordz":1}`, 400, "ERR_INVALID_PARAMS"},
		{`{"words":255,"bpw":8,"bpc":4,"spares":4}`, 400, "ERR_INVALID_PARAMS"},
		{`{"words":256,"bpw":8,"bpc":4,"spares":4,"march":"zz(q9)"}`, 400, "ERR_MARCH_PARSE"},
		{`{"words":256,"bpw":8,"bpc":4,"spares":4,"deck":"feature_nm banana"}`, 400, "ERR_DECK_PARSE"},
		{`{"words":256,"bpw":8,"bpc":4,"spares":4,"and_plane":"x"}`, 400, "ERR_PLANE_PARSE"},
		{`{"words":256,"bpw":8,"bpc":4,"spares":4,"process":"nope"}`, 400, "ERR_INVALID_PARAMS"},
	}
	for _, tc := range cases {
		status, m := postCompile(t, ts, tc.body, "")
		if status != tc.status {
			t.Fatalf("%q: status %d want %d (%v)", tc.body, status, tc.status, m)
		}
		errObj := m["error"].(map[string]any)
		if errObj["code"].(string) != tc.code {
			t.Fatalf("%q: code %v want %s", tc.body, errObj["code"], tc.code)
		}
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	ts, _, _, _ := testServer(t, jobs.Config{}, 64<<20)
	status, m := postCompile(t, ts, smallReq, "?async=1")
	if status != http.StatusAccepted {
		t.Fatalf("async submit: %d %v", status, m)
	}
	jobID := m["job_id"].(string)
	if jobID == "" {
		t.Fatal("no job id")
	}

	deadline := time.Now().Add(30 * time.Second)
	var state string
	for time.Now().Before(deadline) {
		_, st := getJSON(t, ts.URL+"/v1/jobs/"+jobID)
		state = st["state"].(string)
		if state == "done" || state == "failed" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if state != "done" {
		t.Fatalf("job state %q", state)
	}

	code, report := getJSON(t, ts.URL+"/v1/jobs/"+jobID+"/result")
	if code != 200 {
		t.Fatalf("result: %d", code)
	}
	if report["name"].(string) != "bisram_256x8" {
		t.Fatalf("report name %v", report["name"])
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + jobID + "/artifact/datasheet.txt")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "BISRAMGEN datasheet") {
		t.Fatalf("artifact: %d %.80s", resp.StatusCode, body)
	}

	if code, _ := getJSON(t, ts.URL+"/v1/jobs/"+jobID+"/artifact/nope.bin"); code != 404 {
		t.Fatalf("missing artifact: %d", code)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/job-999999"); code != 404 {
		t.Fatalf("unknown job: %d", code)
	}
}

func TestDeadlineMapsTo504(t *testing.T) {
	ts, _, _, _ := testServer(t, jobs.Config{Workers: 1, Deadline: time.Nanosecond}, 1<<20)
	status, m := postCompile(t, ts, smallReq, "")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d %v", status, m)
	}
	errObj := m["error"].(map[string]any)
	if errObj["code"].(string) != "ERR_BUDGET_EXCEEDED" {
		t.Fatalf("code %v", errObj["code"])
	}
}

func TestOverloadBackpressures429(t *testing.T) {
	// One worker, one queue slot: the third unique submission in flight
	// must be rejected with 429.
	ts, _, q, _ := testServer(t, jobs.Config{Workers: 1, Capacity: 1, Deadline: time.Minute}, 1<<20)
	// Saturate the worker via the jobs API directly (deterministic).
	release := make(chan struct{})
	q.Submit("block-worker", jobs.Interactive, nil, func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	})
	defer close(release)
	// Wait until it is running so the capacity math is exact.
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Running == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Fill the single queue slot.
	q.Submit("fill-slot", jobs.Interactive, nil, func(ctx context.Context) (any, error) { return nil, nil })

	status, m := postCompile(t, ts, smallReq, "?async=1")
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d %v", status, m)
	}
}

func TestConcurrentIdenticalPostsDedup(t *testing.T) {
	ts, _, q, _ := testServer(t, jobs.Config{Workers: 1, Deadline: time.Minute}, 64<<20)
	const n = 6
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = postCompile(t, ts, smallReq, "")
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != 200 {
			t.Fatalf("post %d: status %d", i, c)
		}
	}
	s := q.Stats()
	// All six must have been served by at most one actual compile (the
	// rest cache hits or singleflight attaches).
	if s.Completed > 1 {
		t.Fatalf("%d compiles ran for identical input (queue stats %+v)", s.Completed, s)
	}
}

func TestHealthzAndDrainingState(t *testing.T) {
	ts, _, q, _ := testServer(t, jobs.Config{}, 1<<20)
	code, m := getJSON(t, ts.URL+"/healthz")
	if code != 200 || m["status"].(string) != "ok" {
		t.Fatalf("healthz %d %v", code, m)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := q.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	code, m = getJSON(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || m["status"].(string) != "draining" {
		t.Fatalf("draining healthz %d %v", code, m)
	}
	// Submissions during drain surface as 429.
	if status, _ := postCompile(t, ts, smallReq, ""); status != http.StatusTooManyRequests {
		t.Fatalf("drain submit status %d", status)
	}
}

func TestRequestLogLines(t *testing.T) {
	ts, _, _, logBuf := testServer(t, jobs.Config{}, 64<<20)
	postCompile(t, ts, smallReq, "")
	postCompile(t, ts, smallReq, "")
	getJSON(t, ts.URL+"/healthz")

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("want >=3 log lines, got %d: %s", len(lines), logBuf.String())
	}
	sawHit := false
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("log line is not JSON: %s", ln)
		}
		for _, k := range []string{"ts", "method", "path", "status", "dur_ms"} {
			if _, ok := m[k]; !ok {
				t.Fatalf("log line missing %q: %s", k, ln)
			}
		}
		if m["cache"] == "hit" {
			sawHit = true
		}
	}
	if !sawHit {
		t.Fatal("no cache-hit log line recorded")
	}
}

func TestDiscoveryEndpoints(t *testing.T) {
	ts, _, _, _ := testServer(t, jobs.Config{}, 1<<20)
	code, m := getJSON(t, ts.URL+"/v1/processes")
	if code != 200 {
		t.Fatalf("processes %d", code)
	}
	procs := m["processes"].([]any)
	found := false
	for _, p := range procs {
		if p.(string) == "cda07u3m1p" {
			found = true
		}
	}
	if !found {
		t.Fatalf("cda07u3m1p missing from %v", procs)
	}
	code, m = getJSON(t, ts.URL+"/v1/tests")
	if code != 200 || len(m["tests"].([]any)) < 5 {
		t.Fatalf("tests %d %v", code, m)
	}
}

func TestMetricsDocumentShape(t *testing.T) {
	ts, _, _, _ := testServer(t, jobs.Config{}, 1<<20)
	postCompile(t, ts, `{"wordz":1}`, "") // one 400 for the counters
	code, m := getJSON(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics %d", code)
	}
	for _, k := range []string{"cache", "queue", "obs", "uptime_s"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("metrics missing %q: %v", k, m)
		}
	}
	byCode := m["obs"].(map[string]any)["http_errors_total"].(map[string]any)
	if byCode["ERR_INVALID_PARAMS"].(float64) < 1 {
		t.Fatalf("error counter missing: %v", byCode)
	}
}

func TestCacheHitLatencyCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("latency comparison")
	}
	ts, _, _, _ := testServer(t, jobs.Config{}, 64<<20)
	t0 := time.Now()
	if code, _ := postCompile(t, ts, smallReq, ""); code != 200 {
		t.Fatal("compile failed")
	}
	cold := time.Since(t0)
	t1 := time.Now()
	code, m := postCompile(t, ts, smallReq, "")
	hot := time.Since(t1)
	if code != 200 || !m["cached"].(bool) {
		t.Fatal("second post missed cache")
	}
	if hot > cold {
		t.Fatalf("cache hit (%v) slower than cold compile (%v)", hot, cold)
	}
	t.Logf("cold %v, hot %v (%.1fx)", cold, hot, float64(cold)/float64(hot))
}

func TestHTTPStatusTableTotal(t *testing.T) {
	// Every taxonomy code must map to a non-500 class except
	// internal/unknown — pinning the README table.
	want := map[string]int{
		"ERR_BAD_REQUEST":     400,
		"ERR_INVALID_PARAMS":  400,
		"ERR_DECK_PARSE":      400,
		"ERR_MARCH_PARSE":     400,
		"ERR_PLANE_PARSE":     400,
		"ERR_GEOMETRY":        422,
		"ERR_NETLIST":         422,
		"ERR_SIM_DIVERGED":    422,
		"ERR_SIM_SINGULAR":    422,
		"ERR_FLOORPLAN":       422,
		"ERR_REPAIR_FAILED":   422,
		"ERR_NON_FINITE":      422,
		"ERR_BUDGET_EXCEEDED": 504,
		"ERR_OVERLOADED":      429,
		"ERR_INTERNAL":        500,
		"ERR_UNKNOWN":         500,
	}
	got := map[string]int{"ERR_UNKNOWN": httpStatus(fmt.Errorf("untyped"))}
	for _, code := range cerr.Codes() {
		got[code.String()] = httpStatus(cerr.New(code, "sample"))
	}
	for name, status := range want {
		if got[name] != status {
			t.Errorf("%s -> %d, want %d", name, got[name], status)
		}
	}
	if len(got) != len(want) {
		t.Errorf("table covers %d codes, want %d", len(got), len(want))
	}
}

// TestWriteJSONUnencodable checks that a payload the canonical encoder
// refuses (NaN) is answered as a JSON 500 envelope, not as text/plain.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, envelope{Data: map[string]float64{"sigma": math.NaN()}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("Content-Type %q", ct)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "ERR_INTERNAL" {
		t.Fatalf("body %q is not an ERR_INTERNAL envelope (%v)", rec.Body.String(), err)
	}
}

// TestEvictedJobAnswers404: the queue answers for its newest
// jobs.KeepFinished finished jobs, so once that many newer jobs finish,
// a compile's job and trace reads answer 404.
func TestEvictedJobAnswers404(t *testing.T) {
	ts, _, q, _ := testServer(t, jobs.Config{}, 64<<20)
	_, m := postCompile(t, ts, smallReq, "")
	id, _ := m["job_id"].(string)
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/"+id); code != http.StatusOK {
		t.Fatalf("fresh job %s: %d, want 200", id, code)
	}
	for i := 0; i < jobs.KeepFinished; i++ {
		j, _, err := q.Submit("noop-"+strconv.Itoa(i), jobs.Batch, nil,
			func(context.Context) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		j.Result(context.Background())
	}
	for _, path := range []string{"/v1/jobs/" + id, "/v1/jobs/" + id + "/result", "/v1/debug/traces/" + id} {
		if code, _ := getJSON(t, ts.URL+path); code != http.StatusNotFound {
			t.Fatalf("evicted job: GET %s answered %d, want 404", path, code)
		}
	}
}
