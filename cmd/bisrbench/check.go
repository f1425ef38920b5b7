package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"

	"repro/internal/canon"
	"repro/internal/cjson"
	"repro/internal/compiler"
)

// failure is one failed or wrong operation, as -json records it.
type failure struct {
	Op     string `json:"op"`
	Index  int    `json:"index"`
	Status int    `json:"status,omitempty"`
	Code   string `json:"code,omitempty"`
	Reason string `json:"reason"`
}

func (f *failure) Error() string {
	return fmt.Sprintf("%s #%d: status %d %s: %s", f.Op, f.Index, f.Status, f.Code, f.Reason)
}

// wireError is the /v1 envelope's error member.
type wireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// compileJob is the "job" payload of a compile response.
type compileJob struct {
	Key       string          `json:"key"`
	JobID     string          `json:"job_id"`
	Cached    bool            `json:"cached"`
	CacheTier string          `json:"cache_tier"`
	Degraded  bool            `json:"degraded"`
	ElapsedMs float64         `json:"elapsed_ms"`
	Artifacts map[string]int  `json:"artifacts"`
	Report    json.RawMessage `json:"report"`
}

// artifactNames is the artifact set every compile renders. The layout
// pair is absent only when the floorplan degraded to an area estimate.
var artifactNames = []string{
	"datasheet.json", "datasheet.txt", "trpla_and.plane", "trpla_or.plane",
	"layout.svg", "layout.gds",
}

// oracle remembers the report digest of every cold compile, so a hit
// can be held to the exact bytes its key first produced.
type oracle struct {
	mu      sync.RWMutex
	reports map[string][sha256.Size]byte
}

func newOracle() *oracle { return &oracle{reports: map[string][sha256.Size]byte{}} }

// checkCompile decodes and verifies one compile response. wantCached
// selects the hit rules (cached, report identical to the cold bytes)
// over the cold ones (not cached, organisation echoes the request).
func (o *oracle) checkCompile(kind string, idx int, op compileOp, status int, body []byte, wantCached bool) (*compileJob, *failure) {
	fail := func(format string, args ...any) *failure {
		return &failure{Op: kind, Index: idx, Status: status, Reason: fmt.Sprintf(format, args...)}
	}
	var env struct {
		Job   *compileJob `json:"job"`
		Error *wireError  `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fail("response is not an envelope: %v", err)
	}
	if env.Error != nil {
		f := fail("%s", env.Error.Message)
		f.Code = env.Error.Code
		return nil, f
	}
	if status != 200 || env.Job == nil {
		return nil, fail("no job payload")
	}
	job := env.Job
	if job.Key != op.key {
		return nil, fail("key %s, harness computed %s", job.Key, op.key)
	}
	if job.Cached != wantCached {
		return nil, fail("cached=%t, want %t", job.Cached, wantCached)
	}
	sum := sha256.Sum256(job.Report)
	if wantCached {
		o.mu.RLock()
		cold, ok := o.reports[op.key]
		o.mu.RUnlock()
		if !ok || cold != sum {
			return nil, fail("hit report differs from the cold response for its key")
		}
		return job, nil
	}
	var rep compiler.Report
	if err := json.Unmarshal(job.Report, &rep); err != nil {
		return nil, fail("report: %v", err)
	}
	g, org := op.geom, rep.Organisation
	if org.Words != g.Words || org.BPW != g.BPW || org.BPC != g.BPC ||
		org.Rows != g.Words/g.BPC || org.SpareRows != g.Spares {
		return nil, fail("organisation %+v does not match request %+v", org, g)
	}
	for _, name := range artifactNames {
		if job.Artifacts[name] > 0 {
			continue
		}
		if rep.Plan.EstimateOnly && (name == "layout.svg" || name == "layout.gds") {
			continue
		}
		return nil, fail("artifact %s missing or empty", name)
	}
	o.mu.Lock()
	o.reports[op.key] = sum
	o.mu.Unlock()
	return job, nil
}

// coldSample is a cold report kept for the determinism differential.
type coldSample struct {
	kind   string
	idx    int
	op     compileOp
	report []byte
}

// differential recompiles a sampled cold request in-process with
// Parallelism 1 and requires the served report to be the same
// document: the daemon compiled it at its default fan-out, and the
// compiler promises identical bytes at every parallelism.
func differential(s coldSample) *failure {
	fail := func(format string, args ...any) *failure {
		return &failure{Op: s.kind + ".differential", Index: s.idx, Reason: fmt.Sprintf(format, args...)}
	}
	req, err := canon.ParseRequest(s.op.body)
	if err != nil {
		return fail("%v", err)
	}
	p, err := req.Params()
	if err != nil {
		return fail("%v", err)
	}
	p.Parallelism = 1
	d, err := compiler.Compile(p)
	if err != nil {
		return fail("serial compile: %v", err)
	}
	js, err := d.JSON()
	if err != nil {
		return fail("serial report: %v", err)
	}
	want, err := cjson.Canonicalize([]byte(js))
	if err != nil {
		return fail("%v", err)
	}
	got, err := cjson.Canonicalize(s.report)
	if err != nil {
		return fail("%v", err)
	}
	if !bytes.Equal(got, want) {
		return fail("served report differs from the serial in-process compile")
	}
	return nil
}

// sweepResults is the slice of GET /v1/sweeps/{id}/results the oracle
// reads. Rows stay generic so a repeat can be compared field by field.
type sweepResults struct {
	Data *struct {
		Complete bool             `json:"complete"`
		Total    int              `json:"total"`
		Failed   int              `json:"failed"`
		Rows     []map[string]any `json:"rows"`
	} `json:"data"`
	Error *wireError `json:"error"`
}

// sweepID reads the id of a POST /v1/sweeps response.
func sweepID(kind string, idx, status int, body []byte) (string, *failure) {
	var env struct {
		Sweep *struct {
			ID string `json:"id"`
		} `json:"sweep"`
		Error *wireError `json:"error"`
	}
	f := &failure{Op: kind, Index: idx, Status: status}
	switch err := json.Unmarshal(body, &env); {
	case err != nil:
		f.Reason = fmt.Sprintf("response is not an envelope: %v", err)
	case env.Error != nil:
		f.Code, f.Reason = env.Error.Code, env.Error.Message
	case status != 202 || env.Sweep == nil || env.Sweep.ID == "":
		f.Reason = "no sweep payload"
	default:
		return env.Sweep.ID, nil
	}
	return "", f
}

func decodeResults(kind string, idx, status int, body []byte, total int) (*sweepResults, *failure) {
	fail := func(format string, args ...any) *failure {
		return &failure{Op: kind, Index: idx, Status: status, Reason: fmt.Sprintf(format, args...)}
	}
	var res sweepResults
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fail("results are not an envelope: %v", err)
	}
	if res.Error != nil {
		f := fail("%s", res.Error.Message)
		f.Code = res.Error.Code
		return nil, f
	}
	if status != 200 || res.Data == nil {
		return nil, fail("no results payload")
	}
	d := res.Data
	if !d.Complete || d.Total != total || d.Failed != 0 || len(d.Rows) != total {
		return nil, fail("complete=%t total=%d failed=%d rows=%d, want %d clean rows",
			d.Complete, d.Total, d.Failed, len(d.Rows), total)
	}
	return &res, nil
}

// sameRows compares two sweeps' rows with the cached flag removed,
// and requires every row of b to be cached.
func sameRows(a, b []map[string]any) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		if b[i]["cached"] != true {
			return fmt.Errorf("row %d of the repeat was not cached", i)
		}
		ra, rb := without(a[i], "cached"), without(b[i], "cached")
		if !reflect.DeepEqual(ra, rb) {
			return fmt.Errorf("row %d differs from the cold sweep", i)
		}
	}
	return nil
}

func without(m map[string]any, key string) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		if k != key {
			out[k] = v
		}
	}
	return out
}
