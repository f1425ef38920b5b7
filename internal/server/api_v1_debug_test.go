package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// getWith performs a GET with optional headers and returns status,
// headers and body.
func getWith(t *testing.T, url string, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body
}

// TestV1DebugTraceEndpoint: GET /v1/debug/traces/{id} serves Chrome
// JSON by default, a text tree via ?format=tree or Accept: text/plain,
// a wire span set via ?format=spans — and speaks the /v1 error
// contract: enveloped 404 for unknown ids, enveloped 405 with an Allow
// header for wrong methods. The pre-/v1 /debug/trace/{id} alias is
// gone.
func TestV1DebugTraceEndpoint(t *testing.T) {
	ts, _, _, _ := testServer(t, jobs.Config{}, 1<<20)
	code, m := postCompile(t, ts, smallReq, "")
	if code != 200 {
		t.Fatalf("compile %d: %v", code, m)
	}
	jobID, _ := m["job_id"].(string)
	if jobID == "" {
		t.Fatalf("no job_id in response: %v", m)
	}

	// Default representation: Chrome trace-event JSON.
	st, hdr, chrome := getWith(t, ts.URL+"/v1/debug/traces/"+jobID, nil)
	if st != 200 || !strings.HasPrefix(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("v1 trace: %d %q: %s", st, hdr.Get("Content-Type"), chrome)
	}
	if st, _, _ := getWith(t, ts.URL+"/debug/trace/"+jobID, nil); st != http.StatusNotFound {
		t.Fatalf("removed /debug/trace alias answered %d, want 404", st)
	}

	// ?format=tree and Accept: text/plain both select the tree.
	st, hdr, tree := getWith(t, ts.URL+"/v1/debug/traces/"+jobID+"?format=tree", nil)
	if st != 200 || !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") || !bytes.Contains(tree, []byte("compile")) {
		t.Fatalf("tree format: %d %q: %s", st, hdr.Get("Content-Type"), tree)
	}
	st, _, tree2 := getWith(t, ts.URL+"/v1/debug/traces/"+jobID, map[string]string{"Accept": "text/plain"})
	if st != 200 || !bytes.Equal(tree, tree2) {
		t.Fatalf("Accept: text/plain must select the tree (status %d)", st)
	}

	// ?format=spans parses as a wire span set.
	st, _, spans := getWith(t, ts.URL+"/v1/debug/traces/"+jobID+"?format=spans", nil)
	if st != 200 {
		t.Fatalf("spans format: %d: %s", st, spans)
	}
	ss, err := obs.ParseSpanSet(spans)
	if err != nil || len(ss.Spans) == 0 {
		t.Fatalf("span set did not parse (%v): %s", err, spans)
	}

	// Unknown id: enveloped 404.
	st, _, body := getWith(t, ts.URL+"/v1/debug/traces/job-999999", nil)
	var env struct {
		Error *struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if st != 404 || json.Unmarshal(body, &env) != nil || env.Error == nil || env.Error.Code == "" {
		t.Fatalf("unknown id: %d: %s", st, body)
	}

	// Wrong method: enveloped 405 advertising GET.
	resp, err := http.Post(ts.URL+"/v1/debug/traces/"+jobID, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET" {
		t.Fatalf("POST: %d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}
	env.Error = nil
	if json.Unmarshal(body, &env) != nil || env.Error == nil {
		t.Fatalf("405 not enveloped: %s", body)
	}
}

// TestV1DebugStacks: GET /v1/debug/stacks (gated behind
// EnableStacks) dumps every goroutine, and answers wrong methods with
// the enveloped 405. The pre-/v1 /debug/stacks alias is gone.
func TestV1DebugStacks(t *testing.T) {
	q := jobs.New(jobs.Config{Workers: 1, Deadline: time.Minute})
	s := New(Config{Queue: q, Cache: cache.New(1 << 20), EnableStacks: true})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		q.Shutdown(ctx)
	})

	st, hdr, body := getWith(t, ts.URL+"/v1/debug/stacks", nil)
	if st != 200 || !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") || !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("v1 stacks: %d %q: %.200s", st, hdr.Get("Content-Type"), body)
	}
	if st, _, _ := getWith(t, ts.URL+"/debug/stacks", nil); st != http.StatusNotFound {
		t.Fatalf("removed /debug/stacks alias answered %d, want 404", st)
	}

	resp, err := http.Post(ts.URL+"/v1/debug/stacks", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var env struct {
		Error *struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET" ||
		json.Unmarshal(b, &env) != nil || env.Error == nil {
		t.Fatalf("POST stacks: %d Allow=%q: %s", resp.StatusCode, resp.Header.Get("Allow"), b)
	}
}

// TestSweepResultsPagination: ?offset=&limit= windows the rows and
// adds page metadata to the envelope; the parameterless request stays
// the full document with no page member (the compatibility contract);
// malformed windows are enveloped 400s; and a paging client
// reassembles the full row set.
func TestSweepResultsPagination(t *testing.T) {
	ts, _, _, _ := testServer(t, jobs.Config{}, 64<<20)
	cl := sweep.NewClient(ts.URL)
	st, err := cl.CreateSweep(sweep.Spec{
		Base: canon.Request{Words: 256, BPW: 8, BPC: 4, Spares: 4},
		Axes: sweep.Axes{Spares: []int{0, 4}, Defects: []float64{0, 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := cl.WaitSweep(ctx, st.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/sweeps/" + st.ID + "/results"

	type pageEnv struct {
		Data *sweep.Results `json:"data"`
		Page *sweep.Page    `json:"page"`
		Err  *struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	decode := func(b []byte) pageEnv {
		var e pageEnv
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatalf("decode: %v: %s", err, b)
		}
		return e
	}

	// Full document: no page member at all.
	code, _, full := getWith(t, base, nil)
	if code != 200 || bytes.Contains(full, []byte(`"page"`)) {
		t.Fatalf("full document grew a page member: %d: %s", code, full)
	}
	fe := decode(full)
	if len(fe.Data.Rows) != 4 {
		t.Fatalf("full rows: %+v", fe.Data)
	}

	// First window.
	code, _, b := getWith(t, base+"?offset=0&limit=3", nil)
	e := decode(b)
	if code != 200 || e.Page == nil || len(e.Data.Rows) != 3 ||
		e.Page.Total != 4 || e.Page.NextOffset == nil || *e.Page.NextOffset != 3 {
		t.Fatalf("first window: %d: %s", code, b)
	}
	// Document-level counters still describe the whole sweep.
	if e.Data.Total != fe.Data.Total || !e.Data.Complete {
		t.Fatalf("window lost document counters: %+v", e.Data)
	}

	// Last window: next_offset absent.
	code, _, b = getWith(t, base+"?offset=3&limit=3", nil)
	e = decode(b)
	if code != 200 || e.Page == nil || len(e.Data.Rows) != 1 || e.Page.NextOffset != nil {
		t.Fatalf("last window: %d: %s", code, b)
	}

	// Offset past the end: empty page, still well-formed.
	code, _, b = getWith(t, base+"?offset=99", nil)
	e = decode(b)
	if code != 200 || len(e.Data.Rows) != 0 || e.Page.Total != 4 {
		t.Fatalf("past-the-end window: %d: %s", code, b)
	}

	// Malformed windows: enveloped 400s.
	for _, q := range []string{"?offset=-1", "?limit=x", "?offset=1.5"} {
		code, _, b = getWith(t, base+q, nil)
		e = decode(b)
		if code != 400 || e.Err == nil || e.Err.Code == "" {
			t.Fatalf("%s: %d: %s", q, code, b)
		}
	}

	// A paging client reassembles the full document one row at a time.
	cl.PageSize = 1
	res, err := cl.SweepResults(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || !res.Complete || res.Total != 4 {
		t.Fatalf("paged client results: %+v", res)
	}
	for i, row := range res.Rows {
		if row.Index != fe.Data.Rows[i].Index {
			t.Fatalf("paged row order diverged at %d: %+v vs %+v", i, row, fe.Data.Rows[i])
		}
	}
}
