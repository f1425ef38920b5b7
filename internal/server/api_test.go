package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/jobs"
	"repro/internal/store"
	"repro/internal/sweep"
)

const smallSweep = `{"base":{"words":256,"bpw":8,"bpc":4,"spares":4},"axes":{"spares":[0,4],"defects":[0,5]}}`

// rawRequest issues one exchange and returns status, headers and body.
func rawRequest(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestEnvelopeAndMethodTable drives every /v1 route twice: once with
// its documented method, asserting the uniform envelope (exactly one
// payload member, explicit null error, application/json), and once
// with a method the route does not accept, asserting 405 + Allow +
// the same envelope carrying ERR_BAD_REQUEST.
func TestEnvelopeAndMethodTable(t *testing.T) {
	ts, _, _, _ := testServer(t, jobs.Config{}, 64<<20)

	// Seed one job and one sweep so the id-bearing routes have targets.
	_, compiled := postCompile(t, ts, smallReq, "")
	jobID, _ := compiled["job_id"].(string)
	if jobID == "" {
		t.Fatalf("no job id: %v", compiled)
	}
	resp, raw := rawRequest(t, http.MethodPost, ts.URL+"/v1/sweeps", smallSweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep create %d: %s", resp.StatusCode, raw)
	}
	var swEnv map[string]any
	if err := json.Unmarshal(raw, &swEnv); err != nil {
		t.Fatal(err)
	}
	sweepID := swEnv["sweep"].(map[string]any)["id"].(string)

	routes := []struct {
		method string
		path   string
		body   string
		member string // expected payload member; "raw" = unenveloped stream
		allow  string // expected 405 Allow list when wider than method
	}{
		{"POST", "/v1/compile", smallReq, "job", ""},
		{"GET", "/v1/jobs/" + jobID, "", "job", ""},
		{"GET", "/v1/jobs/" + jobID + "/result", "", "data", ""},
		{"GET", "/v1/jobs/" + jobID + "/artifact/datasheet.txt", "", "raw", "GET, HEAD"},
		{"POST", "/v1/sweeps", smallSweep, "sweep", ""},
		{"GET", "/v1/sweeps/" + sweepID, "", "sweep", ""},
		{"GET", "/v1/sweeps/" + sweepID + "/results", "", "data", ""},
		{"GET", "/v1/processes", "", "data", ""},
		{"GET", "/v1/tests", "", "data", ""},
	}
	for _, rt := range routes {
		// Job IDs are random, so subtests name the route pattern.
		t.Run(rt.method+" "+strings.Replace(rt.path, jobID, "{id}", 1), func(t *testing.T) {
			resp, raw := rawRequest(t, rt.method, ts.URL+rt.path, rt.body)
			if resp.StatusCode >= 400 {
				t.Fatalf("status %d: %s", resp.StatusCode, raw)
			}
			if rt.member != "raw" {
				if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
					t.Fatalf("content type %q", ct)
				}
				var env map[string]any
				if err := json.Unmarshal(raw, &env); err != nil {
					t.Fatalf("non-JSON body: %v\n%s", err, raw)
				}
				errVal, present := env["error"]
				if !present || errVal != nil {
					t.Fatalf("success envelope error slot: present=%v value=%v", present, errVal)
				}
				for _, member := range []string{"job", "sweep", "data"} {
					_, has := env[member]
					if member == rt.member && !has {
						t.Fatalf("envelope missing %q member: %s", member, raw)
					}
					if member != rt.member && has {
						t.Fatalf("envelope carries extra %q member: %s", member, raw)
					}
				}
			}

			// Wrong method: DELETE is on no route's allow list.
			resp2, raw2 := rawRequest(t, http.MethodDelete, ts.URL+rt.path, "")
			if resp2.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("wrong method status %d: %s", resp2.StatusCode, raw2)
			}
			wantAllow := rt.allow
			if wantAllow == "" {
				wantAllow = rt.method
			}
			if allow := resp2.Header.Get("Allow"); allow != wantAllow {
				t.Fatalf("Allow header %q, want %q", allow, wantAllow)
			}
			if ct := resp2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("405 content type %q", ct)
			}
			var env map[string]any
			if err := json.Unmarshal(raw2, &env); err != nil {
				t.Fatalf("405 body not JSON: %s", raw2)
			}
			errObj, ok := env["error"].(map[string]any)
			if !ok || errObj["code"].(string) != "ERR_BAD_REQUEST" {
				t.Fatalf("405 envelope error %v", env["error"])
			}
		})
	}
}

// TestErrorEnvelopeShape: failures carry only the error member, with
// code/message (and no payload member).
func TestErrorEnvelopeShape(t *testing.T) {
	ts, _, _, _ := testServer(t, jobs.Config{}, 1<<20)
	resp, raw := rawRequest(t, http.MethodPost, ts.URL+"/v1/compile", `{"wordz":1}`)
	if resp.StatusCode != 400 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var env map[string]any
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	for _, member := range []string{"job", "sweep", "data"} {
		if _, has := env[member]; has {
			t.Fatalf("error envelope carries %q: %s", member, raw)
		}
	}
	errObj := env["error"].(map[string]any)
	if errObj["code"].(string) != "ERR_INVALID_PARAMS" || errObj["message"].(string) == "" {
		t.Fatalf("error member %v", errObj)
	}
}

// TestVersionedCompileRequests: the version field is accepted when
// absent or current, rejected when unknown, and does not perturb the
// content key (the explicit-version request hits the cache entry the
// unversioned one created).
func TestVersionedCompileRequests(t *testing.T) {
	ts, _, _, _ := testServer(t, jobs.Config{}, 64<<20)
	status, first := postCompile(t, ts, smallReq, "")
	if status != 200 {
		t.Fatalf("unversioned compile %d", status)
	}
	status, versioned := postCompile(t, ts, `{"version":1,"words":256,"bpw":8,"bpc":4,"spares":4}`, "")
	if status != 200 || !versioned["cached"].(bool) {
		t.Fatalf("version:1 request missed the cache: %d %v", status, versioned["cached"])
	}
	if versioned["key"].(string) != first["key"].(string) {
		t.Fatal("version field changed the content key")
	}
	status, m := postCompile(t, ts, `{"version":9,"words":256,"bpw":8,"bpc":4,"spares":4}`, "")
	if status != 400 {
		t.Fatalf("unknown version status %d: %v", status, m)
	}
	if m["error"].(map[string]any)["code"].(string) != "ERR_BAD_REQUEST" {
		t.Fatalf("unknown version code %v", m["error"])
	}
}

// TestArtifactStreamingHeaders: artifacts stream with an exact
// Content-Length and a per-kind Content-Type.
func TestArtifactStreamingHeaders(t *testing.T) {
	ts, _, _, _ := testServer(t, jobs.Config{}, 64<<20)
	_, compiled := postCompile(t, ts, smallReq, "")
	jobID := compiled["job_id"].(string)

	cases := []struct {
		name string
		ct   string
	}{
		{"datasheet.json", "application/json; charset=utf-8"},
		{"datasheet.txt", "text/plain; charset=utf-8"},
		{"trpla_and.plane", "text/plain; charset=utf-8"},
		{"layout.svg", "image/svg+xml"},
		{"layout.gds", "application/octet-stream"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := rawRequest(t, http.MethodGet, ts.URL+"/v1/jobs/"+jobID+"/artifact/"+tc.name, "")
			if resp.StatusCode != 200 {
				t.Fatalf("status %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != tc.ct {
				t.Fatalf("content type %q, want %q", ct, tc.ct)
			}
			cl := resp.Header.Get("Content-Length")
			if cl == "" {
				t.Fatal("no Content-Length header")
			}
			n, err := strconv.Atoi(cl)
			if err != nil || n != len(body) {
				t.Fatalf("Content-Length %q vs body %d bytes", cl, len(body))
			}
			if n == 0 {
				t.Fatal("empty artifact")
			}
		})
	}
}

// TestSweepLifecycleOverHTTP drives a sweep through the public client
// bindings: create, wait, results, and a repeat sweep that must be
// fully served from the cache (zero recompiles).
func TestSweepLifecycleOverHTTP(t *testing.T) {
	ts, _, q, _ := testServer(t, jobs.Config{}, 64<<20)
	cl := sweep.NewClient(ts.URL)

	spec := sweep.Spec{
		Base: canon.Request{Words: 256, BPW: 8, BPC: 4, Spares: 4},
		Axes: sweep.Axes{Spares: []int{0, 4}, Defects: []float64{0, 5}},
	}
	st, err := cl.CreateSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 4 || st.UniqueCompiles != 2 {
		t.Fatalf("initial status %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err = cl.WaitSweep(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Done != 4 {
		t.Fatalf("final status %+v", st)
	}
	res, err := cl.SweepResults(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Rows) != 4 {
		t.Fatalf("results %+v", res)
	}
	for _, row := range res.Rows {
		if row.Defects == 5 && row.Spares == 4 && row.YieldBISR <= row.YieldNoRepair {
			t.Fatalf("BISR yield must dominate: %+v", row)
		}
	}

	// Repeat sweep: every point must be a cache hit, with no new
	// compiles on the queue.
	before := q.Stats().Completed
	st2, err := cl.CreateSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2, err = cl.WaitSweep(ctx, st2.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached != st2.Total {
		t.Fatalf("repeat sweep not fully cached: %+v", st2)
	}
	if got := q.Stats().Completed; got != before {
		t.Fatalf("repeat sweep ran compiles: %d -> %d", before, got)
	}

	// Unknown sweep id maps to 404 through the client's typed errors.
	if _, err := cl.SweepStatus("sweep-999999"); err == nil {
		t.Fatal("unknown sweep accepted")
	}
}

// TestStoreTierRestartWarm: a compile persisted to the disk store is
// served as a cache hit by a fresh server (new process's cache, same
// store directory), annotated with the disk tier; a corrupted object
// is quarantined, recompiled and re-persisted.
func TestStoreTierRestartWarm(t *testing.T) {
	dir := t.TempDir()
	serve := func() (*httptest.Server, *store.Store, func()) {
		st, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		q := jobs.New(jobs.Config{Workers: 2, Deadline: time.Minute})
		s := New(Config{Queue: q, Cache: cache.New(64 << 20), Store: st})
		hs := httptest.NewServer(s.Handler())
		return hs, st, func() {
			hs.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			q.Shutdown(ctx)
		}
	}

	// Generation 1: compile and persist.
	hs1, st1, stop1 := serve()
	status, first := postCompile(t, hs1, smallReq, "")
	if status != 200 || first["cached"].(bool) {
		t.Fatalf("gen1 compile %d %v", status, first["cached"])
	}
	key := first["key"].(string)
	if st1.Stats().Puts != 1 || !st1.Contains(key) {
		t.Fatalf("compile not persisted: %+v", st1.Stats())
	}
	stop1()

	// Generation 2: same directory, empty memory cache — the identical
	// request must be served from disk without a compile.
	hs2, st2, stop2 := serve()
	if st2.Stats().ScannedAtStartup != 1 {
		t.Fatalf("startup scan %+v", st2.Stats())
	}
	status, warm := postCompile(t, hs2, smallReq, "")
	if status != 200 || !warm["cached"].(bool) {
		t.Fatalf("gen2 not cached: %d %v", status, warm)
	}
	if warm["cache_tier"].(string) != "hit-disk" {
		t.Fatalf("cache tier %v, want hit-disk", warm["cache_tier"])
	}
	if warm["key"].(string) != key {
		t.Fatal("key drifted across restart")
	}
	if st2.Stats().Hits != 1 {
		t.Fatalf("store hits %+v", st2.Stats())
	}
	// Second identical request is now a memory hit (promoted).
	if _, mem := postCompile(t, hs2, smallReq, ""); mem["cache_tier"].(string) != "hit" {
		t.Fatalf("promotion failed: %v", mem["cache_tier"])
	}
	stop2()

	// Generation 3: corrupt the object on disk; the server must
	// quarantine it, recompile and persist a fresh copy.
	path := filepath.Join(dir, "objects", key+".entry")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	hs3, st3, stop3 := serve()
	defer stop3()
	status, m := postCompile(t, hs3, smallReq, "")
	if status != 200 {
		t.Fatalf("gen3 compile %d", status)
	}
	if m["cached"].(bool) {
		t.Fatal("corrupt object served as a cache hit")
	}
	stats := st3.Stats()
	if stats.Corrupt != 1 || st3.QuarantinedCount() != 1 {
		t.Fatalf("corruption not quarantined: %+v quarantined=%d", stats, st3.QuarantinedCount())
	}
	if !st3.Contains(key) {
		t.Fatal("recompiled object not re-persisted")
	}
}

// TestMemoryTierHoldsReports pins the report-resident memory tier: a
// 1 MiB tier over a store keeps all of 16 distinct compiles — whole
// entries of 128–180 KB each would overflow it after about seven — so
// every re-POST is a memory hit, the tier stays under 8 KiB per key,
// and each hit, from memory or from disk after a restart, reports the
// same artifact sizes as its cold compile.
func TestMemoryTierHoldsReports(t *testing.T) {
	dir := t.TempDir()
	serve := func() (*httptest.Server, func()) {
		st, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		q := jobs.New(jobs.Config{Workers: 2, Deadline: time.Minute})
		hs := httptest.NewServer(New(Config{Queue: q, Cache: cache.New(1 << 20), Store: st}).Handler())
		return hs, func() {
			hs.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			q.Shutdown(ctx)
		}
	}
	var reqs []string
	for _, words := range []int{256, 512, 1024, 2048} {
		for _, bpw := range []int{8, 16} {
			for _, spares := range []int{4, 8} {
				reqs = append(reqs, fmt.Sprintf(`{"words":%d,"bpw":%d,"bpc":4,"spares":%d}`, words, bpw, spares))
			}
		}
	}
	sameArtifacts := func(tier string, got, want map[string]any) {
		t.Helper()
		if got["cache_tier"] != tier {
			t.Fatalf("%s: cache_tier %v, want %q", got["key"], got["cache_tier"], tier)
		}
		if !reflect.DeepEqual(got["artifacts"], want["artifacts"]) {
			t.Fatalf("%s: %s artifacts %v, cold compile had %v", got["key"], tier, got["artifacts"], want["artifacts"])
		}
	}

	hs, stop := serve()
	cold := make([]map[string]any, len(reqs))
	for i, body := range reqs {
		status, m := postCompile(t, hs, body, "")
		if status != 200 || m["cached"].(bool) || len(m["artifacts"].(map[string]any)) == 0 {
			t.Fatalf("cold compile %s: %d %v", body, status, m)
		}
		cold[i] = m
	}
	for i, body := range reqs {
		_, m := postCompile(t, hs, body, "")
		sameArtifacts("hit", m, cold[i])
	}
	_, metrics := getJSON(t, hs.URL+"/metrics")
	if b := metrics["obs"].(map[string]any)["cache_bytes"].(float64); b >= 16*8<<10 {
		t.Fatalf("cache_bytes %v for 16 keys, want < %d", b, 16*8<<10)
	}
	stop()

	hs, stop = serve()
	defer stop()
	for i, body := range reqs {
		_, m := postCompile(t, hs, body, "")
		sameArtifacts("hit-disk", m, cold[i])
	}
}

// TestHeadAndObjectEndpoints: HEAD on the artifact route returns the
// GET headers (content type, exact Content-Length) with an empty
// body; /v1/objects/{key} serves the verbatim on-disk object image
// under GET and HEAD, 404s (enveloped) for unknown keys, and lists
// both methods in the 405 Allow header.
func TestHeadAndObjectEndpoints(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	q := jobs.New(jobs.Config{Workers: 2, Deadline: time.Minute})
	s := New(Config{Queue: q, Cache: cache.New(64 << 20), Store: st})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		q.Shutdown(ctx)
	}()

	_, compiled := postCompile(t, ts, smallReq, "")
	jobID, _ := compiled["job_id"].(string)
	key, _ := compiled["key"].(string)
	if jobID == "" || key == "" {
		t.Fatalf("compile response missing ids: %v", compiled)
	}

	artifact := "/v1/jobs/" + jobID + "/artifact/datasheet.txt"
	respGet, body := rawRequest(t, http.MethodGet, ts.URL+artifact, "")
	if respGet.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("artifact GET %d (%d bytes)", respGet.StatusCode, len(body))
	}
	respHead, headBody := rawRequest(t, http.MethodHead, ts.URL+artifact, "")
	if respHead.StatusCode != http.StatusOK {
		t.Fatalf("artifact HEAD %d", respHead.StatusCode)
	}
	if len(headBody) != 0 {
		t.Fatalf("artifact HEAD carried a %d-byte body", len(headBody))
	}
	if got, want := respHead.Header.Get("Content-Length"), strconv.Itoa(len(body)); got != want {
		t.Fatalf("artifact HEAD Content-Length %q, want %q", got, want)
	}
	if got, want := respHead.Header.Get("Content-Type"), respGet.Header.Get("Content-Type"); got != want {
		t.Fatalf("artifact HEAD Content-Type %q, want %q", got, want)
	}

	raw, ok := st.ReadRaw(key)
	if !ok {
		t.Fatal("compiled object not in the store")
	}
	respObj, objBody := rawRequest(t, http.MethodGet, ts.URL+"/v1/objects/"+key, "")
	if respObj.StatusCode != http.StatusOK || string(objBody) != string(raw) {
		t.Fatalf("objects GET %d (%d bytes, want %d)", respObj.StatusCode, len(objBody), len(raw))
	}
	if ct := respObj.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("objects Content-Type %q", ct)
	}
	respObjHead, objHeadBody := rawRequest(t, http.MethodHead, ts.URL+"/v1/objects/"+key, "")
	if respObjHead.StatusCode != http.StatusOK || len(objHeadBody) != 0 {
		t.Fatalf("objects HEAD %d (%d bytes)", respObjHead.StatusCode, len(objHeadBody))
	}
	if got, want := respObjHead.Header.Get("Content-Length"), strconv.Itoa(len(raw)); got != want {
		t.Fatalf("objects HEAD Content-Length %q, want %q", got, want)
	}

	// Unknown key: enveloped 404.
	resp404, raw404 := rawRequest(t, http.MethodGet, ts.URL+"/v1/objects/"+strings.Repeat("0", 64), "")
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown object %d", resp404.StatusCode)
	}
	var env404 map[string]any
	if err := json.Unmarshal(raw404, &env404); err != nil || env404["error"] == nil {
		t.Fatalf("unknown-object 404 not enveloped: %s", raw404)
	}

	// Wrong method advertises the full list.
	resp405, _ := rawRequest(t, http.MethodDelete, ts.URL+"/v1/objects/"+key, "")
	if resp405.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("objects DELETE %d", resp405.StatusCode)
	}
	if allow := resp405.Header.Get("Allow"); allow != "GET, HEAD" {
		t.Fatalf("objects Allow %q, want \"GET, HEAD\"", allow)
	}
}
