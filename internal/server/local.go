package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/cerr"
	"repro/internal/chaos"
	"repro/internal/compiler"
	"repro/internal/jobs"
	"repro/internal/memo"
	"repro/internal/obs"
)

// local is the daemon's Backend: compiles run on the server's own
// queue, content-addressed over the in-memory cache and the optional
// disk store. The queue answers the job and trace reads.
type local struct {
	s *Server

	cacheHits    *obs.Counter
	storeHits    *obs.Counter
	cacheMisses  *obs.Counter
	dedupes      *obs.Counter
	putErrors    *obs.Counter
	compileDur   *obs.Histogram
	stageDur     *obs.HistogramVec
	slowCompiles *obs.Counter
	parStages    *obs.Counter
	parDegree    *obs.Histogram
}

func newLocal(s *Server) *local {
	l := &local{s: s}
	l.registerMetrics()
	s.latency = l.compileDur
	return l
}

// registerMetrics wires the compile instruments and the cache and
// store gauges into the obs registry.
func (l *local) registerMetrics() {
	s := l.s
	r := s.cfg.Metrics
	l.cacheHits = r.Counter("compile_cache_hits_total", "Compile submissions served from the artifact cache (either tier).")
	l.storeHits = r.Counter("compile_store_hits_total", "Compile submissions served from the disk store tier (memory miss, disk hit).")
	l.cacheMisses = r.Counter("compile_cache_misses_total", "Compile submissions that missed both cache tiers.")
	l.dedupes = r.Counter("compile_deduped_total", "Compile submissions coalesced onto an identical in-flight job.")
	l.compileDur = r.Histogram("compile_duration_seconds", "End-to-end compile execution time on a worker.", nil)
	l.stageDur = r.HistogramVec("compile_stage_duration_seconds",
		"Per-span pipeline stage latency (queue wait, compiler stages, bounded kernels).", "stage", nil)
	l.slowCompiles = r.Counter("compile_slow_total", "Compiles that exceeded the slow-compile threshold.")
	l.parStages = r.Counter("compile_parallel_stages_total",
		"Concurrent stage fan-outs executed across all compiles (layout beside the analysis transients, macro builders, multi-start floorplan).")
	l.parDegree = r.Histogram("compile_parallelism",
		"Per-compile goroutine fan-out bound (the parallelism knob after server defaulting).",
		[]float64{1, 2, 4, 8, 16, 32, 64})

	// The process-wide memo tables (leaf-cell libraries, the two
	// analysis transients, Monte-Carlo estimates), one label each.
	for _, t := range memo.Tables() {
		labels := map[string]string{"table": t.Name()}
		r.CounterFuncLabeled("memo_hits_total", "Memo lookups served from a stored or in-flight result, by table.",
			labels, func() float64 { return float64(t.Stats().Hits) })
		r.CounterFuncLabeled("memo_misses_total", "Memo lookups that ran the memoized computation, by table.",
			labels, func() float64 { return float64(t.Stats().Misses) })
	}

	if c := s.cfg.Cache; c != nil {
		r.GaugeFunc("cache_bytes", "Resident memory-tier size in bytes (reports and artifact sizes).",
			func() float64 { return float64(c.Stats().Bytes) })
		r.GaugeFunc("cache_entries", "Resident memory-tier entry count.",
			func() float64 { return float64(c.Stats().Entries) })
	}
	if st := s.cfg.Store; st != nil {
		l.putErrors = r.Counter("store_put_errors_total", "Compiled entries the disk store failed to persist (the compile still succeeds).")
		r.GaugeFunc("store_bytes", "Resident disk store size in bytes.",
			func() float64 { return float64(st.Stats().Bytes) })
		r.GaugeFunc("store_entries", "Disk store object count.",
			func() float64 { return float64(st.Stats().Entries) })
		r.CounterFunc("store_hits_total", "Disk store read hits (verified objects served).",
			func() float64 { return float64(st.Stats().Hits) })
		r.CounterFunc("store_misses_total", "Disk store read misses.",
			func() float64 { return float64(st.Stats().Misses) })
		r.CounterFunc("store_evictions_total", "Disk store objects removed by the byte-budget GC.",
			func() float64 { return float64(st.Stats().Evictions) })
		r.CounterFunc("store_corrupt_total", "Disk store objects that failed verification and were quarantined.",
			func() float64 { return float64(st.Stats().Corrupt) })
		r.GaugeFunc("store_scanned_at_startup", "Objects the opening index scan found (restart warmness).",
			func() float64 { return float64(st.Stats().ScannedAtStartup) })
		r.GaugeFunc("store_quarantine_objects", "Files currently held in the bounded quarantine directory.",
			func() float64 { return float64(st.Stats().QuarantineObjects) })
		const peerFetchHelp = "Ring-peer artifact fetches on local store miss, by outcome."
		r.CounterFuncLabeled("store_peer_fetch_total", peerFetchHelp,
			map[string]string{"outcome": "hit"},
			func() float64 { return float64(st.Stats().PeerHits) })
		r.CounterFuncLabeled("store_peer_fetch_total", peerFetchHelp,
			map[string]string{"outcome": "miss"},
			func() float64 { return float64(st.Stats().PeerMisses) })
		r.CounterFuncLabeled("store_peer_fetch_total", peerFetchHelp,
			map[string]string{"outcome": "corrupt"},
			func() float64 { return float64(st.Stats().PeerCorrupt) })
	}
}

// compileResponse is the "job" payload of submit/result responses.
type compileResponse struct {
	Key      string `json:"key"`
	JobID    string `json:"job_id,omitempty"`
	State    string `json:"state"`
	Cached   bool   `json:"cached"`
	Deduped  bool   `json:"deduped,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	// CacheTier names the tier a cached response was served from:
	// "hit" (memory) or "hit-disk" (store, promoted to memory).
	CacheTier string `json:"cache_tier,omitempty"`
	// ElapsedMs is the server-side handling time for this request —
	// on a cache hit it collapses to lookup cost.
	ElapsedMs float64         `json:"elapsed_ms"`
	Artifacts map[string]int  `json:"artifacts,omitempty"` // name -> byte size
	Report    json.RawMessage `json:"report,omitempty"`
}

// lookupEntry probes the two-tier cache: the in-memory LRU first, then
// the disk store, promoting disk hits into memory. Either tier answers
// with a report-resident entry (report, Degraded flag, artifact
// sizes). The returned tier is "hit", "hit-disk" or "miss".
func (l *local) lookupEntry(key string) (*cache.Entry, string, bool) {
	if e, ok := l.s.cfg.Cache.Get(key); ok {
		return e, "hit", true
	}
	if st := l.s.cfg.Store; st != nil {
		if e, ok := st.Get(key); ok {
			l.s.cfg.Cache.Put(e)
			return e, "hit-disk", true
		}
	}
	return nil, "miss", false
}

// Lookup is the sweep manager's Lookup seam: both cache tiers.
func (l *local) Lookup(key string) (*cache.Entry, bool) {
	e, _, ok := l.lookupEntry(key)
	return e, ok
}

// Run is the sweep manager's Run seam: one observed compile. Every
// compile the daemon runs, interactive or sweep point, passes here, so
// here the server-side concurrency default applies. It applies after
// keying: parallelism is an execution knob the canonical key excludes,
// so a request compiled serially elsewhere still hits this entry.
func (l *local) Run(ctx context.Context, key string, _ canon.Request, p compiler.Params) (*cache.Entry, error) {
	if p.Parallelism == 0 && l.s.cfg.CompileParallelism > 0 {
		p.Parallelism = l.s.cfg.CompileParallelism
	}
	runStart := time.Now()
	entry, err := l.runCompile(ctx, key, p)
	l.observeCompile(obs.FromContext(ctx), time.Since(runStart), key, err)
	return entry, err
}

// Compile serves a cache hit from either tier, and otherwise submits
// the compile to the queue and waits for it (or hands back a job
// handle with ?async=1).
func (l *local) Compile(w http.ResponseWriter, r *http.Request, c Compile) error {
	s := l.s
	// Content-addressed fast path: an identical fully-validated input
	// has already been compiled, in this process (memory tier) or a
	// previous one (disk tier).
	if entry, tier, ok := l.lookupEntry(c.Key); ok {
		l.cacheHits.Inc()
		if tier == "hit-disk" {
			l.storeHits.Inc()
		}
		annotateCache(w, tier)
		resp := entryResponse(entry, "", false, c.Start, true)
		resp.CacheTier = tier
		WriteJSON(w, http.StatusOK, envelope{Job: resp})
		return nil
	}
	annotateCache(w, "miss")
	l.cacheMisses.Inc()

	// The queue gives every job a trace, retrievable via
	// GET /v1/debug/traces/{job_id}. A traceparent header continues the
	// sender's distributed trace instead — same trace ID, with the
	// remote span remembered so the gateway's merge parents this
	// shard's spans under its proxy.route span.
	var tr *obs.Trace
	if tid, parent, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceHeader)); ok {
		tr = obs.NewTraceRemote(tid, parent)
	}
	job, deduped, err := s.cfg.Queue.Submit(c.Key, c.Priority, tr, func(ctx context.Context) (any, error) {
		entry, err := l.Run(ctx, c.Key, canon.Request{}, c.Params)
		if err != nil {
			return nil, err
		}
		return entry, nil
	})
	if err != nil {
		// Overload (full or draining queue) back-pressures as
		// ERR_OVERLOADED -> 429 + Retry-After via the standard mapping.
		return err
	}
	if deduped {
		l.dedupes.Inc()
	}

	handle := compileResponse{Key: c.Key, JobID: job.ID, Deduped: deduped}
	if r.URL.Query().Get("async") != "" {
		handle.State, handle.ElapsedMs = job.State().String(), msSince(c.Start)
		WriteJSON(w, http.StatusAccepted, envelope{Job: handle})
		return nil
	}
	value, jerr := job.Result(r.Context())
	if jerr != nil {
		return jerr
	}
	WriteJSON(w, http.StatusOK, envelope{Job: entryResponse(value.(*cache.Entry), job.ID, deduped, c.Start, false)})
	return nil
}

// runCompile executes the pipeline under the job context, renders the
// cacheable artifact set and fills both cache tiers.
func (l *local) runCompile(ctx context.Context, key string, params compiler.Params) (*cache.Entry, error) {
	ctx = chaos.WithContext(ctx, l.s.cfg.Chaos)
	d, err := compiler.CompileCtx(ctx, params)
	if err != nil {
		return nil, err
	}
	entry, err := RenderEntry(key, d)
	if err != nil {
		return nil, err
	}
	l.s.cfg.Cache.Put(entry)
	if st := l.s.cfg.Store; st != nil {
		// Disk persistence is best-effort: a full disk or an over-budget
		// object must not fail the compile that produced the entry.
		if perr := st.Put(entry); perr != nil {
			l.putErrors.Inc()
		}
	}
	return entry, nil
}

// RenderEntry renders a compiled design into the entry the daemon
// caches and persists under key: the canonical report and the
// design's artifact set (compiler.Design.Artifacts).
func RenderEntry(key string, d *compiler.Design) (*cache.Entry, error) {
	arts, err := d.Artifacts()
	if err != nil {
		return nil, cerr.Wrap(cerr.CodeInternal, err, "server: report rendering")
	}
	return &cache.Entry{
		Key:       key,
		Report:    arts["datasheet.json"],
		Artifacts: arts,
		Degraded:  len(d.Degradations) > 0,
	}, nil
}

// observeCompile folds one finished compile into the telemetry: the
// end-to-end duration histogram, every recorded span (queue wait,
// compiler stages, bounded kernels) into the per-stage histogram vec,
// and — when the execution exceeded the slow-compile threshold — the
// span tree into the forensics log.
func (l *local) observeCompile(tr *obs.Trace, dur time.Duration, key string, err error) {
	l.compileDur.ObserveDuration(dur)
	for _, sp := range tr.Spans() {
		l.stageDur.With(sp.Name).ObserveDuration(sp.Dur)
		// The compiler annotates its root span with the effective
		// concurrency: fold the fan-out degree into a histogram and
		// count the concurrent stage groups that actually ran.
		if sp.Name == "compile" {
			for _, a := range sp.Attrs {
				switch a.Key {
				case "parallelism":
					if v, perr := strconv.Atoi(a.Value); perr == nil {
						l.parDegree.Observe(float64(v))
					}
				case "parallel_stages":
					if v, perr := strconv.Atoi(a.Value); perr == nil && v > 0 {
						l.parStages.Add(uint64(v))
					}
				}
			}
		}
	}
	s := l.s
	if s.cfg.SlowCompile <= 0 || dur < s.cfg.SlowCompile {
		return
	}
	l.slowCompiles.Inc()
	w := s.cfg.SlowLogWriter
	if w == nil {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SLOW COMPILE key=%s dur=%s threshold=%s", key, dur.Round(time.Microsecond), s.cfg.SlowCompile)
	if err != nil {
		fmt.Fprintf(&b, " err=%s", cerr.CodeOf(err))
	}
	b.WriteByte('\n')
	b.WriteString(tr.SpanSet(s.node).Tree())
	s.logMu.Lock()
	defer s.logMu.Unlock()
	io.WriteString(w, b.String())
}

// entryResponse builds the "job" payload for a completed entry.
func entryResponse(e *cache.Entry, jobID string, deduped bool, startT time.Time, cached bool) compileResponse {
	return compileResponse{
		Key: e.Key, JobID: jobID, State: jobs.StateDone.String(),
		Cached: cached, Deduped: deduped, Degraded: e.Degraded,
		ElapsedMs: msSince(startT),
		Artifacts: e.ArtifactSizes(),
		Report:    json.RawMessage(e.Report),
	}
}

func annotateCache(w http.ResponseWriter, state string) {
	if rw, ok := w.(*statusWriter); ok {
		rw.meta.cacheState = state
	}
}

// Job answers no id: every job the daemon runs is on its own queue,
// which the server asks first.
func (l *local) Job(http.ResponseWriter, *http.Request, string, string) bool { return false }

// Object serves GET/HEAD /v1/objects/{key} and its report.
//
// The object is the verbatim on-disk image for a content key — the
// shard-to-shard artifact fetch endpoint. The bytes are served
// UNVERIFIED by design: the fetching peer verifies every section
// before it promotes the image, so a corrupt image quarantines on the
// fetcher exactly like local disk rot, and this handler never pays a
// hash pass.
//
// The report is served only when a cache tier (memory, disk, or a ring
// peer via the store's fetch seam) already holds it — it never
// triggers a compile. This is the gateway sweep Lookup seam: how a
// federated sweep tells a warm point from one that needs routing, so
// cluster sweep rows carry the same cached flags a warm single daemon
// would report.
func (l *local) Object(w http.ResponseWriter, r *http.Request, key string, report bool) error {
	s := l.s
	if report {
		entry, _, ok := l.lookupEntry(key)
		if !ok {
			s.writeError(w, cerr.New(cerr.CodeInvalidParams, "server: key %s not cached", key), http.StatusNotFound)
			return nil
		}
		WriteJSON(w, http.StatusOK, envelope{Data: map[string]any{
			"key":      key,
			"degraded": entry.Degraded,
			"report":   json.RawMessage(entry.Report),
		}})
		return nil
	}
	var raw []byte
	ok := false
	if st := s.cfg.Store; st != nil {
		raw, ok = st.ReadRaw(key)
	}
	if !ok {
		s.writeError(w, cerr.New(cerr.CodeInvalidParams, "server: no object %s", key), http.StatusNotFound)
		return nil
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		w.Write(raw)
	}
	return nil
}

// Trace likewise knows no id the queue does not hold.
func (l *local) Trace(context.Context, string) (obs.SpanSet, bool) { return obs.SpanSet{}, false }

// Health reports the worker pool, the shard identity when federated,
// and "draining" once the queue sheds new work.
func (l *local) Health(doc map[string]any) string {
	qs := l.s.cfg.Queue.Stats()
	doc["workers"] = qs.Workers
	if cl := l.s.cfg.Cluster; cl != nil {
		doc["role"] = "shard"
		doc["self"] = cl.Self()
		if gw := cl.Gateway(); gw != "" {
			doc["gateway"] = gw
		}
		doc["ring_version"] = cl.RingVersion()
		doc["peers_up"] = cl.PeersUp()
		doc["peers_total"] = cl.PeersTotal()
	}
	if qs.Draining {
		// Shedding state: load balancers should stop routing here.
		return "draining"
	}
	return ""
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}
