package sweep

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/cerr"
	"repro/internal/chaos"
	"repro/internal/compiler"
	"repro/internal/jobs"
)

func baseReq() canon.Request {
	return canon.Request{Words: 256, BPW: 8, BPC: 4, Spares: 4}
}

func TestExpandCrossProduct(t *testing.T) {
	spec := Spec{
		Base: baseReq(),
		Axes: Axes{
			Spares:  []int{2, 4, 8},
			Defects: []float64{0, 5, 10},
		},
	}
	pts, err := spec.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 9 {
		t.Fatalf("expanded %d points, want 9", len(pts))
	}
	// Axis order is fixed: spares outer, defects inner.
	if pts[0].Req.Spares != 2 || pts[0].Defects != 0 {
		t.Fatalf("point 0 = %+v", pts[0])
	}
	if pts[4].Req.Spares != 4 || pts[4].Defects != 5 {
		t.Fatalf("point 4 = %+v", pts[4])
	}
	// Unswept fields keep base values.
	for _, p := range pts {
		if p.Req.Words != 256 || p.Req.BPW != 8 {
			t.Fatalf("base fields drifted: %+v", p.Req)
		}
	}
}

func TestExpandCapAndEmptyAxes(t *testing.T) {
	spec := Spec{Base: baseReq(), Axes: Axes{Spares: []int{1, 2, 3, 4}}}
	if _, err := spec.Expand(3); cerr.CodeOf(err) != cerr.CodeBadRequest {
		t.Fatalf("cap not enforced: %v", err)
	}
	// No axes at all: one point, the base itself.
	pts, err := Spec{Base: baseReq()}.Expand(0)
	if err != nil || len(pts) != 1 {
		t.Fatalf("bare base expanded to %d points (%v)", len(pts), err)
	}
	if pts[0].Req != baseReq() || pts[0].Defects != 0 {
		t.Fatalf("bare point %+v", pts[0])
	}
}

func TestParseSpecStrictAndVersioned(t *testing.T) {
	good := `{"base":{"words":256,"bpw":8,"bpc":4,"spares":4},"axes":{"spares":[2,4]}}`
	if _, err := ParseSpec([]byte(good)); err != nil {
		t.Fatal(err)
	}
	versioned := `{"version":1,"base":{"words":256,"bpw":8,"bpc":4,"spares":4},"axes":{}}`
	if _, err := ParseSpec([]byte(versioned)); err != nil {
		t.Fatal(err)
	}
	cases := []string{
		`{"version":9,"base":{"words":256,"bpw":8,"bpc":4,"spares":4}}`, // unknown version
		`{"base":{"words":256},"axen":{}}`,                              // typo'd field
		`not json`,
		`{"base":{"words":256,"bpw":8,"bpc":4,"spares":4}} trailing`,
		`{"base":{"words":256,"bpw":8,"bpc":4,"spares":4}}}`,
		`{"base":{"words":256,"bpw":8,"bpc":4,"spares":4}}]`,
		`{"base":{"words":256,"bpw":8,"bpc":4,"spares":4}}]]`,
		`{"base":{"words":256,"bpw":8,"bpc":4,"spares":4}}1}`,
	}
	for _, body := range cases {
		if _, err := ParseSpec([]byte(body)); cerr.CodeOf(err) != cerr.CodeBadRequest {
			t.Fatalf("%q: want ERR_BAD_REQUEST, got %v", body, err)
		}
	}
}

// fakeEntry builds a cache entry whose report carries the metrics the
// results path reads.
func fakeEntry(key string, rows, cols int, growth float64) *cache.Entry {
	var r compiler.Report
	r.Name = "fake"
	r.Organisation.Rows = rows
	r.Organisation.Columns = cols
	r.Area.GrowthFactor = growth
	r.Area.Total = 1e6
	r.Area.OverheadPct = 5
	r.Timing.AccessNs = 9.5
	b, _ := json.Marshal(r)
	return &cache.Entry{Key: key, Report: b, Artifacts: map[string][]byte{}}
}

// harness builds a manager over a real jobs queue with a fake compile
// and a map-backed store.
type harness struct {
	t     *testing.T
	q     *jobs.Queue
	m     *Manager
	mu    sync.Mutex
	store map[string]*cache.Entry
	runs  atomic.Int64
	fail  atomic.Bool
}

func newHarness(t *testing.T) *harness {
	h := &harness{t: t, store: map[string]*cache.Entry{}}
	h.q = jobs.New(jobs.Config{Workers: 2, Deadline: time.Minute})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		h.q.Shutdown(ctx)
	})
	h.m = NewManager(Config{
		Queue: h.q,
		Lookup: func(key string) (*cache.Entry, bool) {
			h.mu.Lock()
			defer h.mu.Unlock()
			e, ok := h.store[key]
			return e, ok
		},
		Run: func(ctx context.Context, key string, _ canon.Request, p compiler.Params) (*cache.Entry, error) {
			h.runs.Add(1)
			if h.fail.Load() {
				return nil, cerr.New(cerr.CodeFloorplan, "synthetic failure")
			}
			e := fakeEntry(key, p.Rows(), p.BPW*p.BPC, 1.05)
			h.mu.Lock()
			h.store[key] = e
			h.mu.Unlock()
			return e, nil
		},
	})
	return h
}

func wait(t *testing.T, sw *Sweep) {
	t.Helper()
	select {
	case <-sw.Done():
	case <-time.After(20 * time.Second):
		t.Fatalf("sweep %s did not finish", sw.ID)
	}
}

func TestManagerDedupsAnalysisAxis(t *testing.T) {
	h := newHarness(t)
	// 3 spares × 3 defects = 9 points but only 3 unique compiles.
	sw, err := h.m.Create(Spec{
		Base: baseReq(),
		Axes: Axes{Spares: []int{4, 8, 16}, Defects: []float64{0, 5, 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, sw)
	if got := h.runs.Load(); got != 3 {
		t.Fatalf("%d compiles ran, want 3 (defect axis must not trigger compiles)", got)
	}
	st := sw.Status()
	if st.State != "done" || st.Done != 9 || st.Failed != 0 {
		t.Fatalf("status %+v", st)
	}
	if st.UniqueCompiles != 3 {
		t.Fatalf("unique compiles %d", st.UniqueCompiles)
	}
	res := sw.Results()
	if !res.Complete || len(res.Rows) != 9 {
		t.Fatalf("results %+v", res)
	}
}

func TestRepeatedSweepZeroRecompiles(t *testing.T) {
	h := newHarness(t)
	spec := Spec{Base: baseReq(), Axes: Axes{Spares: []int{4, 8}}}
	sw1, err := h.m.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, sw1)
	before := h.runs.Load()

	sw2, err := h.m.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, sw2)
	if h.runs.Load() != before {
		t.Fatalf("repeated sweep recompiled: %d -> %d runs", before, h.runs.Load())
	}
	st := sw2.Status()
	if st.Cached != st.Total {
		t.Fatalf("repeat sweep not fully cached: %+v", st)
	}
	for _, row := range sw2.Results().Rows {
		if !row.Cached {
			t.Fatalf("row %d not marked cached", row.Index)
		}
	}
}

func TestManagerFailurePropagates(t *testing.T) {
	h := newHarness(t)
	h.fail.Store(true)
	sw, err := h.m.Create(Spec{Base: baseReq(), Axes: Axes{Spares: []int{4, 8}}})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, sw)
	st := sw.Status()
	if st.State != "failed" || st.Failed != 2 {
		t.Fatalf("status %+v", st)
	}
	for _, ps := range st.Points {
		if ps.ErrorCode != "ERR_FLOORPLAN" {
			t.Fatalf("point error code %q", ps.ErrorCode)
		}
	}
	res := sw.Results()
	if !res.Complete || res.Failed != 2 || len(res.Rows) != 0 {
		t.Fatalf("results %+v", res)
	}
}

func TestInvalidPointFailsCreation(t *testing.T) {
	h := newHarness(t)
	// words not divisible by bpc -> invalid point at expansion time.
	_, err := h.m.Create(Spec{
		Base: baseReq(),
		Axes: Axes{Words: []int{255}},
	})
	if err == nil {
		t.Fatal("invalid point accepted")
	}
	if cerr.CodeOf(err) != cerr.CodeInvalidParams {
		t.Fatalf("code %v", cerr.CodeOf(err))
	}
}

func TestResultsYieldColumns(t *testing.T) {
	h := newHarness(t)
	sw, err := h.m.Create(Spec{
		Base: baseReq(),
		Axes: Axes{Spares: []int{0, 4}, Defects: []float64{0, 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, sw)
	res := sw.Results()
	if len(res.Rows) != 4 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Defects == 0 {
			// Zero defects: yield must be ~1 for both columns.
			if row.YieldNoRepair < 0.999 || row.YieldBISR < 0.999 {
				t.Fatalf("zero-defect yields %+v", row)
			}
		} else {
			if row.YieldNoRepair <= 0 || row.YieldNoRepair >= 1 {
				t.Fatalf("no-repair yield out of range: %+v", row)
			}
			if row.Spares > 0 && row.YieldBISR <= row.YieldNoRepair {
				t.Fatalf("BISR yield must dominate no-repair at %v defects: %+v", row.Defects, row)
			}
		}
		if row.GrowthFactor != 1.05 {
			t.Fatalf("growth factor column %v", row.GrowthFactor)
		}
	}
}

func TestExpandMCAxes(t *testing.T) {
	spec := Spec{
		Base: baseReq(),
		Axes: Axes{
			Defects:   []float64{0, 5},
			MCSamples: []int{64},
			MCSigma:   []float64{0.1, 0.2},
		},
	}
	pts, err := spec.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("expanded %d points, want 4", len(pts))
	}
	// MC axes are innermost: sigma varies fastest, then samples, then
	// defects.
	want := []struct {
		defects float64
		sigma   float64
	}{{0, 0.1}, {0, 0.2}, {5, 0.1}, {5, 0.2}}
	for i, w := range want {
		if pts[i].Defects != w.defects || pts[i].Req.MCSigma != w.sigma || pts[i].Req.MCSamples != 64 {
			t.Fatalf("point %d = %+v (defects %v), want %+v", i, pts[i].Req, pts[i].Defects, w)
		}
	}
}

func TestManagerMCSharesCompileAndFillsRows(t *testing.T) {
	h := newHarness(t)
	// 2 sigmas × 1 sample count = 2 points, but the MC axes are
	// analysis-only: exactly one compile may run.
	spec := Spec{
		Base: baseReq(),
		Axes: Axes{MCSamples: []int{48}, MCSigma: []float64{0.2, 0.25}},
	}
	sw, err := h.m.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, sw)
	if got := h.runs.Load(); got != 1 {
		t.Fatalf("%d compiles ran, want 1 (MC axes must not trigger compiles)", got)
	}
	res := sw.Results()
	if len(res.Rows) != 2 || res.Failed != 0 {
		t.Fatalf("results %+v", res)
	}
	for i, row := range res.Rows {
		if row.MC == nil {
			t.Fatalf("row %d missing MC block", i)
		}
		if row.MC.Samples != 48 || row.MC.Sigma == 0 {
			t.Fatalf("row %d MC = %+v", i, row.MC)
		}
		if row.MC.YieldCell <= 0 || row.MC.YieldCell > 1 {
			t.Fatalf("row %d cell yield %v", i, row.MC.YieldCell)
		}
		if row.MC.YieldArray > row.MC.YieldCell {
			t.Fatalf("row %d array yield %v exceeds cell yield %v",
				i, row.MC.YieldArray, row.MC.YieldCell)
		}
	}
	if res.Rows[0].MC.Sigma >= res.Rows[1].MC.Sigma {
		t.Fatalf("sigma axis order lost: %v then %v", res.Rows[0].MC.Sigma, res.Rows[1].MC.Sigma)
	}

	// The estimate is seeded: an identical sweep must reproduce the MC
	// blocks bit-identically (and recompile nothing).
	sw2, err := h.m.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, sw2)
	if h.runs.Load() != 1 {
		t.Fatalf("repeat MC sweep recompiled (%d runs)", h.runs.Load())
	}
	res2 := sw2.Results()
	for i := range res.Rows {
		if *res.Rows[i].MC != *res2.Rows[i].MC {
			t.Fatalf("row %d MC not deterministic:\n%+v\n%+v", i, res.Rows[i].MC, res2.Rows[i].MC)
		}
	}
}

func TestManagerRowsWithoutMCOmitBlock(t *testing.T) {
	h := newHarness(t)
	sw, err := h.m.Create(Spec{Base: baseReq(), Axes: Axes{Defects: []float64{0, 5}}})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, sw)
	b, err := json.Marshal(sw.Results())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"mc"`) {
		t.Fatalf("MC block leaked into non-MC results: %s", b)
	}
}

func TestManagerMCInvalidKnobsFailCreation(t *testing.T) {
	h := newHarness(t)
	// samples without sigma is rejected by canon.ValidateMC at
	// expansion time, like any other invalid point.
	_, err := h.m.Create(Spec{Base: baseReq(), Axes: Axes{MCSamples: []int{64}}})
	if cerr.CodeOf(err) != cerr.CodeInvalidParams {
		t.Fatalf("err = %v, want CodeInvalidParams", err)
	}
}

func TestManagerMCChaosFailsPoint(t *testing.T) {
	h := newHarness(t)
	inj, err := chaos.Parse([]byte(`{"seed":1,"rules":[{"point":"mc.sample","mode":"error"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{
		Queue:  h.q,
		Lookup: func(string) (*cache.Entry, bool) { return nil, false },
		Run: func(ctx context.Context, key string, _ canon.Request, p compiler.Params) (*cache.Entry, error) {
			return fakeEntry(key, p.Rows(), p.BPW*p.BPC, 1.0), nil
		},
		Chaos: inj,
	})
	base := baseReq()
	base.MCSamples, base.MCSigma = 32, 0.2
	sw, err := m.Create(Spec{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, sw)
	st := sw.Status()
	if st.Failed != 1 || st.State != "failed" {
		t.Fatalf("chaos-injected MC abort not surfaced: %+v", st)
	}
	if st.Points[0].ErrorCode != cerr.CodeInternal.String() {
		t.Fatalf("point error code %q", st.Points[0].ErrorCode)
	}
}

func TestManagerRetention(t *testing.T) {
	h := newHarness(t)
	m := NewManager(Config{
		Queue:  h.q,
		Lookup: func(string) (*cache.Entry, bool) { return nil, false },
		Run: func(ctx context.Context, key string, _ canon.Request, p compiler.Params) (*cache.Entry, error) {
			return fakeEntry(key, p.Rows(), p.BPW*p.BPC, 1.0), nil
		},
	})
	var last *Sweep
	for i := 0; i < DefaultRetain+3; i++ {
		sw, err := m.Create(Spec{Base: baseReq()})
		if err != nil {
			t.Fatal(err)
		}
		wait(t, sw)
		last = sw
	}
	m.mu.Lock()
	n := len(m.sweeps)
	m.mu.Unlock()
	if n > DefaultRetain {
		t.Fatalf("retained %d sweeps, cap %d", n, DefaultRetain)
	}
	if _, ok := m.Get(last.ID); !ok {
		t.Fatal("most recent sweep evicted")
	}
	if _, ok := m.Get("sweep-000001"); ok {
		t.Fatal("oldest sweep still retained")
	}
}

func TestStatusJSONRoundTripsThroughClientTypes(t *testing.T) {
	h := newHarness(t)
	sw, err := h.m.Create(Spec{Base: baseReq(), Axes: Axes{Defects: []float64{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, sw)
	b, err := json.Marshal(sw.Status())
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.Total != 2 || st.ID != sw.ID {
		t.Fatalf("round trip %+v", st)
	}
	if !strings.HasPrefix(st.Points[0].Key, "") || len(st.Points[0].Key) != 64 {
		t.Fatalf("point key %q", st.Points[0].Key)
	}
}
