package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"

	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/cjson"
	"repro/internal/compiler"
	"repro/internal/gds"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/store"
	"repro/internal/sweep"
)

// layerMetric is one per-layer measurement of the traced run and the
// end-to-end metric it should move.
type layerMetric struct {
	name, unit, better, moves string
	// driver marks the metrics BENCHMARK.json lists. The sweep, cluster
	// and mcyield timings are left out there: only fleet-sweep does that
	// work, so they read 0 on the other three workloads.
	driver bool
}

var layerMetrics = []layerMetric{
	{"server.handler_ms", "ms", "lower", "latency_p50_ms / hit-serve", true},
	{"server.transport_ms", "ms", "lower", "latency_p50_ms / hit-serve", true},
	{"canon.resolve_ms", "ms", "lower", "latency_p50_ms / hit-serve", true},
	{"cjson.response_ms", "ms", "lower", "latency_p50_ms / hit-serve", true},
	{"cjson.report_ms", "ms", "lower", "latency_p50_ms / cold-compile", true},
	{"cache.hit_ratio", "ratio", "higher", "latency_p50_ms / hit-serve", true},
	{"cache.get_ms", "ms", "lower", "latency_p50_ms / hit-serve", true},
	{"cache.evictions_per_op", "count/op", "lower", "latency_p50_ms / hit-serve", true},
	{"store.hit_ratio", "ratio", "higher", "latency_p90_ms / hit-serve", true},
	{"store.get_ms", "ms", "lower", "latency_p90_ms / hit-serve", true},
	{"store.put_ms", "ms", "lower", "latency_p50_ms / cold-compile; latency_p90_ms / mixed-rw", true},
	{"store.bytes_per_put", "B", "lower", "latency_p50_ms / cold-compile; latency_p90_ms / mixed-rw", true},
	{"store.peer_fetch_hits_per_op", "count/op", "higher", "compile_p50_ms / fleet-sweep", true},
	{"jobs.queue_wait_ms", "ms", "lower", "compile_p90_ms / mixed-rw; sweep_cold_p50_ms / fleet-sweep", true},
	{"jobs.dedup_ratio", "ratio", "higher", "compile_p90_ms / mixed-rw; sweep_cold_p50_ms / fleet-sweep", true},
	{"compiler.compile_ms", "ms", "lower", "latency_p50_ms / cold-compile; latency_p90_ms / mixed-rw", true},
	{"compiler.params_ms", "ms", "lower", "latency_p50_ms / cold-compile", true},
	{"compiler.leafcells_ms", "ms", "lower", "latency_p50_ms / cold-compile", true},
	{"compiler.microcode_ms", "ms", "lower", "latency_p50_ms / cold-compile", true},
	{"compiler.macros_ms", "ms", "lower", "latency_p50_ms / cold-compile", true},
	{"compiler.floorplan_ms", "ms", "lower", "latency_p50_ms / cold-compile", true},
	{"compiler.analysis_ms", "ms", "lower", "latency_p50_ms / cold-compile", true},
	{"compiler.parallel_stages_per_op", "count/op", "higher", "latency_p50_ms / cold-compile; latency_p90_ms / mixed-rw", true},
	{"compiler.datasheet_ms", "ms", "lower", "latency_p50_ms / cold-compile", true},
	{"floorplan.refine_ms", "ms", "lower", "latency_p90_ms / cold-compile", true},
	{"floorplan.refine_calls_per_op", "count/op", "lower", "latency_p90_ms / cold-compile", true},
	{"spice.transient_ms", "ms", "lower", "latency_p50_ms / cold-compile", true},
	{"spice.transient_calls_per_op", "count/op", "lower", "latency_p50_ms / cold-compile", true},
	{"timing.access_ms", "ms", "lower", "latency_p50_ms / cold-compile", true},
	{"timing.tlb_ms", "ms", "lower", "latency_p50_ms / cold-compile", true},
	{"render.svg_ms", "ms", "lower", "latency_p50_ms / cold-compile", true},
	{"gds.write_ms", "ms", "lower", "latency_p50_ms / cold-compile", true},
	{"sweep.points_cached_ratio", "ratio", "higher", "sweep_repeat_p50_ms / fleet-sweep", true},
	{"sweep.unique_compiles_per_sweep", "count/sweep", "lower", "sweep_cold_p50_ms / fleet-sweep", true},
	{"sweep.expand_ms", "ms", "lower", "sweep_cold_p50_ms, sweep_repeat_p50_ms / fleet-sweep", false},
	{"cluster.proxy_route_ms", "ms", "lower", "sweep_repeat_p50_ms, compile_p50_ms / fleet-sweep", false},
	{"cluster.proxy_requests_per_op", "count/op", "lower", "sweep_repeat_p50_ms / fleet-sweep", true},
	{"cluster.failovers", "count", "lower", "compile_p50_ms / fleet-sweep", true},
	{"mcyield.estimate_ms", "ms", "lower", "sweep_mc_p50_ms / fleet-sweep", false},
	{"mcyield.estimates_per_sweep", "count/sweep", "lower", "sweep_mc_p50_ms / fleet-sweep", true},
	{"mcyield.samples_per_op", "count/op", "lower", "sweep_mc_p50_ms / fleet-sweep", true},
	{"runtime.alloc_mb_per_op", "MB/op", "lower", "every latency_p90_ms", true},
	{"runtime.gc_cpu_fraction", "ratio", "lower", "every latency_p90_ms", true},
}

// layerNames lists the per-layer metrics BENCHMARK.json names.
func layerNames() []string {
	var names []string
	for _, m := range layerMetrics {
		if m.driver {
			names = append(names, m.name)
		}
	}
	return names
}

// layerValue is one computed per-layer number. Window says which
// traffic it was measured over: the traced phase ("measured"), or the
// set-up ("setup") for a layer the measured phase never reached —
// hit-serve compiles only while it builds its working set.
type layerValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Window string  `json:"window"`
	Moves  string  `json:"moves"`
}

// counters is a flattened registry snapshot: counters and gauges by
// name, histograms as name.count / name.sum, vec children as
// name{label}.count / .sum, counter vecs summed over labels.
type counters map[string]float64

// snapshot reads every registry plus the cache, store and runtime
// state at one instant.
type snapshot struct {
	daemon, gateway counters
}

func (b *bench) snapshot() snapshot {
	s := snapshot{daemon: counters{}, gateway: counters{}}
	for _, n := range b.st.nodes {
		s.daemon.addRegistry(n.reg)
		s.daemon.addStats(n.cache.Stats(), n.store.Stats())
	}
	if b.st.gw != nil {
		s.gateway.addRegistry(b.st.gw.reg)
	}
	s.daemon.addRuntime()
	return s
}

func (c counters) addRegistry(r *obs.Registry) {
	for name, v := range r.Snapshot() {
		m, ok := v.(map[string]any)
		if !ok {
			c[name] += num(v)
			continue
		}
		if _, hist := m["buckets"]; hist {
			c[name+".count"] += num(m["count"])
			c[name+".sum"] += num(m["sum"])
			continue
		}
		for label, lv := range m {
			if h, ok := lv.(map[string]any); ok {
				c[name+"{"+label+"}.count"] += num(h["count"])
				c[name+"{"+label+"}.sum"] += num(h["sum"])
			} else {
				c[name] += num(lv)
			}
		}
	}
}

func (c counters) addStats(cs cache.Stats, ss store.Stats) {
	c["cache.hits"] += float64(cs.Hits)
	c["cache.misses"] += float64(cs.Misses)
	c["cache.evictions"] += float64(cs.Evictions)
	c["store.hits"] += float64(ss.Hits)
	c["store.misses"] += float64(ss.Misses)
	c["store.puts"] += float64(ss.Puts)
	c["store.bytes"] += float64(ss.Bytes)
	c["store.peer_hits"] += float64(ss.PeerHits)
}

// runtimeMetrics are read around the traced phase for allocation and
// GC CPU per op.
var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func (c counters) addRuntime() {
	samples := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			c[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			c[s.Name] = s.Value.Float64()
		}
	}
}

// minus returns c - d key by key.
func (c counters) minus(d counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - d[k]
	}
	return out
}

func num(v any) float64 {
	switch x := v.(type) {
	case uint64:
		return float64(x)
	case float64:
		return x
	case map[string]any: // counter vec: sum the children
		var s float64
		for _, cv := range x {
			s += num(cv)
		}
		return s
	}
	return 0
}

// ratio is a/b, or 0 when nothing happened.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traced runs the workload twice on the set-up stack: untraced, for
// the overhead baseline, then traced with registry snapshots around
// it. The layer replay and the gateway trace fetch follow, outside
// any timing.
func (b *bench) traced(res *result) (*phase, error) {
	setup := b.snapshot()
	base := b.newPhase(false)
	b.run(base)
	before := b.snapshot()
	ph := b.newPhase(true)
	b.run(ph)
	after := b.snapshot()

	t := ph.total()
	res.MeasuredS = ph.elapsed.Seconds()
	res.account(base.total())
	res.account(t)
	layers, err := b.layers(ph, t, setup, before, after)
	if err != nil {
		return ph, err
	}
	for _, m := range layerMetrics {
		res.add(m.name, layers[m.name].Value, m.unit)
	}
	untraced := float64(base.total().ops) / base.elapsed.Seconds()
	tracedRate := float64(t.ops) / ph.elapsed.Seconds()
	overhead := 100 * (untraced - tracedRate) / untraced
	res.add("trace_overhead_pct", overhead, "%")

	doc := struct {
		Workload         string                `json:"workload"`
		Seed             uint64                `json:"seed"`
		MeasuredOps      int                   `json:"measured_ops"`
		MeasuredS        float64               `json:"measured_s"`
		TraceOverheadPct float64               `json:"trace_overhead_pct"`
		Layers           map[string]layerValue `json:"layers"`
	}{b.w.name, b.opts.seed, t.ops, res.MeasuredS, overhead, layers}
	if err := writeJSONFile(filepath.Join(b.opts.traceDir, "layers.json"), doc); err != nil {
		return ph, err
	}
	chrome, err := b.chromeTrace(ph, t)
	if err != nil {
		return ph, err
	}
	return ph, os.WriteFile(filepath.Join(b.opts.traceDir, "trace.json"), chrome, 0o644)
}

// layers computes every per-layer metric of the traced phase.
func (b *bench) layers(ph *phase, t *tally, setupSnap, before, after snapshot) (map[string]layerValue, error) {
	m := after.daemon.minus(before.daemon)
	u := setupSnap.daemon
	g := after.gateway.minus(before.gateway)
	ops := float64(t.ops)
	out := map[string]layerValue{}
	set := func(name string, v float64, window string) {
		out[name] = layerValue{Value: v, Window: window}
	}

	// Compile stages, from the compile_stage_duration_seconds spans the
	// daemon folds per traced compile. Stage times are per compile, so
	// they add up to compiler.compile_ms; kernel times are per call.
	stage := func(c counters, s string) (n, sum float64) {
		return c["compile_stage_duration_seconds{"+s+"}.count"], c["compile_stage_duration_seconds{"+s+"}.sum"]
	}
	w, window := m, "measured"
	if n, _ := stage(m, "compile"); n == 0 {
		w, window = u, "setup"
	}
	compiles, _ := stage(w, "compile")
	for _, s := range []string{"compile", "compile.params", "compile.leafcells", "compile.microcode",
		"compile.macros", "compile.floorplan", "compile.analysis"} {
		_, sum := stage(w, s)
		name := "compiler." + strings.TrimPrefix(strings.TrimPrefix(s, "compile"), ".") + "_ms"
		if s == "compile" {
			name = "compiler.compile_ms"
		}
		set(name, 1000*ratio(sum, compiles), window)
	}
	set("compiler.parallel_stages_per_op", ratio(w["compile_parallel_stages_total"], compiles), window)
	for _, k := range []struct{ span, name string }{
		{"floorplan.refine", "floorplan.refine"}, {"spice.transient", "spice.transient"},
		{"timing.access", "timing.access"}, {"timing.tlb", "timing.tlb"},
	} {
		n, sum := stage(w, k.span)
		set(k.name+"_ms", 1000*ratio(sum, n), window)
		if k.span == "floorplan.refine" || k.span == "spice.transient" {
			set(k.name+"_calls_per_op", ratio(n, compiles), window)
		}
	}

	qw, qwWindow := m, "measured"
	if qw["jobs_queue_wait_seconds.count"] == 0 {
		qw, qwWindow = u, "setup"
	}
	set("jobs.queue_wait_ms", 1000*ratio(qw["jobs_queue_wait_seconds.sum"], qw["jobs_queue_wait_seconds.count"]), qwWindow)
	set("jobs.dedup_ratio", ratio(m["jobs_deduped_total"], m["jobs_submitted_total"]+m["jobs_deduped_total"]), "measured")

	set("cache.hit_ratio", ratio(m["cache.hits"], m["cache.hits"]+m["cache.misses"]), "measured")
	set("cache.evictions_per_op", ratio(m["cache.evictions"], ops), "measured")
	set("store.hit_ratio", ratio(m["store.hits"], m["store.hits"]+m["store.misses"]), "measured")
	put, putWindow := m, "measured"
	if put["store.puts"] == 0 {
		put, putWindow = u, "setup"
	}
	set("store.bytes_per_put", ratio(put["store.bytes"], put["store.puts"]), putWindow)
	set("store.peer_fetch_hits_per_op", ratio(m["store.peer_hits"], ops), "measured")

	set("sweep.points_cached_ratio", ratio(g["sweep_points_cached_total"], g["sweep_points_total"]), "measured")
	// The gateway's router queue runs one job per uncached sweep group.
	set("sweep.unique_compiles_per_sweep", ratio(g["jobs_submitted_total"], g["sweeps_created_total"]), "measured")
	set("cluster.proxy_requests_per_op", ratio(g["proxy_requests_total"], ops), "measured")
	set("cluster.failovers", g["proxy_failovers_total"], "measured")
	set("mcyield.estimate_ms", 1000*ratio(g["mcyield_estimate_duration_seconds.sum"], g["mcyield_estimate_duration_seconds.count"]), "measured")
	set("mcyield.estimates_per_sweep", ratio(g["mcyield_estimates_total"], g["sweeps_created_total"]), "measured")
	set("mcyield.samples_per_op", ratio(g["mcyield_samples_total"], ops), "measured")

	set("server.handler_ms", mean(t.handler), "measured")
	set("server.transport_ms", mean(t.transport), "measured")
	set("runtime.alloc_mb_per_op", ratio(m["/gc/heap/allocs:bytes"], ops)/(1<<20), "measured")
	set("runtime.gc_cpu_fraction", ratio(m["/cpu/classes/gc/total:cpu-seconds"], m["/cpu/classes/total:cpu-seconds"]), "measured")

	route, err := b.proxyRoutes(t.jobs)
	if err != nil {
		return nil, err
	}
	set("cluster.proxy_route_ms", mean(route), "measured")

	replayed, err := b.replay(ph, t)
	if err != nil {
		return nil, err
	}
	for name, v := range replayed {
		out[name] = v
	}
	for _, lm := range layerMetrics {
		v, ok := out[lm.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not computed", lm.name)
		}
		v.Unit, v.Moves = lm.unit, lm.moves
		out[lm.name] = v
	}
	return out, nil
}

// proxyRoutes reads the gateway's proxy.route span durations (ms) from
// the merged traces of the traced phase's routed compiles.
func (b *bench) proxyRoutes(jobs []string) ([]float64, error) {
	var out []float64
	for _, id := range jobs {
		status, body, _, err := b.st.do(http.MethodGet, b.st.url+"/v1/debug/traces/"+id+"?format=spans", nil)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("trace %s: status %d: %v", id, status, err)
		}
		ss, err := obs.ParseSpanSet(body)
		if err != nil {
			return nil, err
		}
		for _, sp := range ss.Spans {
			if sp.Name == "proxy.route" {
				out = append(out, float64(sp.DurNs)/1e6)
			}
		}
	}
	return out, nil
}

// envelope mirrors the daemon's compile response document, so the
// replay marshals the same shape the handler does.
type envelope struct {
	Job   compileResponse `json:"job"`
	Error *wireError      `json:"error"`
}

type compileResponse struct {
	Key       string          `json:"key"`
	JobID     string          `json:"job_id,omitempty"`
	State     string          `json:"state"`
	Cached    bool            `json:"cached"`
	Degraded  bool            `json:"degraded,omitempty"`
	CacheTier string          `json:"cache_tier,omitempty"`
	ElapsedMs float64         `json:"elapsed_ms"`
	Artifacts map[string]int  `json:"artifacts,omitempty"`
	Report    json.RawMessage `json:"report,omitempty"`
}

// replay re-runs the traced phase's requests in-process through the
// public calls the daemon's handler and compile path make, each inside
// a benchmark-side span, and returns the per-call mean of every span.
func (b *bench) replay(ph *phase, t *tally) (map[string]layerValue, error) {
	ctx := obs.WithTrace(context.Background(), ph.trace)
	span := func(name string) func(...obs.Attr) {
		_, end := obs.Start(ctx, "replay."+name)
		return end
	}
	rc := cache.New(b.st.nodes[0].cache.Stats().BudgetBytes)
	rs, err := store.Open(store.Config{Dir: filepath.Join(b.st.dir, "replay-store")})
	if err != nil {
		return nil, err
	}

	for _, l := range t.lookups {
		end := span("canon.resolve")
		_, err := keyOf(l.op.body)
		end()
		if err != nil {
			return nil, err
		}
	}

	// The tiers start as the daemon's were when the phase began: every
	// key served as a hit, and not compiled during the phase, is on disk,
	// and one untimed pass warms the memory tier. The timed pass then
	// walks the requests in order; a cold request misses both tiers and
	// its compile writes them, as runCompile does.
	compiledInPhase := map[string]bool{}
	for _, l := range t.lookups {
		if !l.cached {
			compiledInPhase[l.op.key] = true
		}
	}
	daemonEntry := func(key string) (*cache.Entry, error) {
		for _, n := range b.st.nodes {
			if e, ok := n.store.Get(key); ok {
				return e, nil
			}
		}
		return nil, fmt.Errorf("replay: key %s is in no daemon store", key)
	}
	for _, l := range t.lookups {
		if !l.cached || compiledInPhase[l.op.key] || rs.Contains(l.op.key) {
			continue
		}
		e, err := daemonEntry(l.op.key)
		if err != nil {
			return nil, err
		}
		if err := rs.Put(e); err != nil {
			return nil, err
		}
	}
	lookupEntry := func(key string, timed bool) *cache.Entry {
		end := func(...obs.Attr) {}
		if timed {
			end = span("cache.get")
		}
		e, ok := rc.Get(key)
		end()
		if ok {
			return e
		}
		if timed {
			end = span("store.get")
		}
		e, ok = rs.Get(key)
		end()
		if !ok {
			return nil
		}
		rc.Put(e)
		return e
	}
	for _, l := range t.lookups {
		if l.cached && !compiledInPhase[l.op.key] {
			lookupEntry(l.op.key, false)
		}
	}
	for _, l := range t.lookups {
		e := lookupEntry(l.op.key, true)
		if e == nil {
			var err error
			if e, err = daemonEntry(l.op.key); err != nil {
				return nil, err
			}
			rc.Put(e)
			if err := rs.Put(e); err != nil {
				return nil, err
			}
		}
		resp := compileResponse{Key: e.Key, State: "done", Cached: l.cached, Degraded: e.Degraded,
			Artifacts: map[string]int{}, Report: e.Report}
		for name, body := range e.Artifacts {
			resp.Artifacts[name] = len(body)
		}
		end := span("cjson.response")
		_, err := cjson.MarshalIndent(envelope{Job: resp})
		end()
		if err != nil {
			return nil, err
		}
	}

	// Compiles replay the phase's first cold requests, or the working
	// set when the phase compiled nothing.
	compileWindow := "measured"
	cold := t.cold
	if len(cold) == 0 {
		compileWindow = "setup"
		cold = b.set[:min(len(b.set), replayCompiles)]
	}
	for _, op := range cold {
		if err := b.replayCompile(span, op, rs); err != nil {
			return nil, err
		}
	}

	for _, spec := range t.specs {
		end := span("sweep.expand")
		err := expandSweep(spec)
		end()
		if err != nil {
			return nil, err
		}
	}

	stats := map[string][2]float64{}
	for _, sp := range ph.trace.Spans() {
		if name, ok := strings.CutPrefix(sp.Name, "replay."); ok {
			st := stats[name]
			stats[name] = [2]float64{st[0] + 1, st[1] + ms(sp.Dur)}
		}
	}
	out := map[string]layerValue{}
	for _, name := range []string{"canon.resolve", "cache.get", "store.get", "cjson.response", "sweep.expand"} {
		out[name+"_ms"] = layerValue{Value: ratio(stats[name][1], stats[name][0]), Window: "measured"}
	}
	for _, name := range []string{"cjson.report", "compiler.datasheet", "render.svg", "gds.write", "store.put"} {
		out[name+"_ms"] = layerValue{Value: ratio(stats[name][1], stats[name][0]), Window: compileWindow}
	}
	return out, nil
}

// replayCompile compiles op the way the daemon's runCompile does and
// times each rendering step and the store write.
func (b *bench) replayCompile(span func(string) func(...obs.Attr), op compileOp, rs *store.Store) error {
	req, err := canon.ParseRequest(op.body)
	if err != nil {
		return err
	}
	p, err := req.Params()
	if err != nil {
		return err
	}
	p.Parallelism = b.opts.compilePar
	d, err := compiler.Compile(p)
	if err != nil {
		return err
	}
	end := span("cjson.report")
	js, err := d.JSON()
	end()
	if err != nil {
		return err
	}
	e := &cache.Entry{Key: op.key, Report: []byte(js), Artifacts: map[string][]byte{}, Degraded: len(d.Degradations) > 0}
	e.Artifacts["datasheet.json"] = []byte(js)
	end = span("compiler.datasheet")
	e.Artifacts["datasheet.txt"] = []byte(d.Datasheet())
	end()
	var and, or strings.Builder
	if err := d.Prog.WritePlanes(&and, &or); err == nil {
		e.Artifacts["trpla_and.plane"] = []byte(and.String())
		e.Artifacts["trpla_or.plane"] = []byte(or.String())
	}
	if d.Top != nil {
		end = span("render.svg")
		e.Artifacts["layout.svg"] = []byte(render.SVG(d.Top, render.Options{Depth: 0}))
		end()
		var g strings.Builder
		end = span("gds.write")
		err := gds.Write(&g, d.Top, d.Top.Name)
		end()
		if err != nil {
			return err
		}
		e.Artifacts["layout.gds"] = []byte(g.String())
	}
	end = span("store.put")
	err = rs.Put(e)
	end()
	return err
}

// expandSweep resolves a sweep spec to its point keys, as the sweep
// manager does when a sweep is created.
func expandSweep(spec []byte) error {
	s, err := sweep.ParseSpec(spec)
	if err != nil {
		return err
	}
	points, err := s.Expand(sweep.DefaultMaxPoints)
	if err != nil {
		return err
	}
	for _, pt := range points {
		p, err := pt.Req.Params()
		if err != nil {
			return err
		}
		if _, err := canon.KeyOfParams(p); err != nil {
			return err
		}
	}
	return nil
}

// chromeTrace renders the benchmark trace — op spans of the traced
// phase plus the replay — merged with the first routed compiles' fleet
// traces, as Chrome trace-event JSON.
func (b *bench) chromeTrace(ph *phase, t *tally) ([]byte, error) {
	sets := []obs.SpanSet{ph.trace.SpanSet("bisrbench")}
	for _, id := range t.jobs[:min(len(t.jobs), 4)] {
		status, body, _, err := b.st.do(http.MethodGet, b.st.url+"/v1/debug/traces/"+id+"?format=spans", nil)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("trace %s: status %d: %v", id, status, err)
		}
		ss, err := obs.ParseSpanSet(body)
		if err != nil {
			return nil, err
		}
		sets = append(sets, ss)
	}
	return obs.MergeSpanSets(sets).ChromeJSON()
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return ratio(s, float64(len(v)))
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
