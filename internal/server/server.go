// Package server implements the bisramgend HTTP/JSON API: compile
// submission with content-addressed caching, batch sweeps, job
// status/result/artifact retrieval, health and metrics. It glues the
// service substrates together — internal/canon (canonical keying and
// the shared Params loader), internal/jobs (bounded worker pool with
// priorities, dedup and drain), internal/cache (byte-budgeted LRU
// over rendered artifacts), internal/store (the disk tier under the
// LRU, so restarts stay warm) and internal/sweep (cross-product batch
// evaluation) — in front of the existing compile pipeline, whose
// typed cerr taxonomy maps 1:1 onto HTTP statuses.
//
// Envelope: every /v1/* JSON response is one uniform document with
// exactly one payload member and an explicit error slot,
//
//	{ "job" | "sweep" | "data": ..., "error": {code, stage, message} | null }
//
// (artifact bodies stream raw with their own Content-Type; /healthz,
// /metrics and /debug/* keep their documented shapes). A request with
// a method the route does not accept is answered 405 with an Allow
// header and the same envelope.
//
// Endpoints:
//
//	POST /v1/compile                    submit (sync by default, ?async=1 for a job handle)
//	GET  /v1/jobs/{id}                  job status
//	GET  /v1/jobs/{id}/result           compile report (canonical JSON, under "data")
//	GET  /v1/jobs/{id}/artifact/{name}  rendered artifact (datasheet, planes, SVG, GDS)
//	POST /v1/sweeps                     submit a batch sweep (base request + axes)
//	GET  /v1/sweeps/{id}                sweep progress (aggregate + per-point)
//	GET  /v1/sweeps/{id}/results        sweep evaluation rows (Fig. 4/5, Tables II/III)
//	GET  /v1/sweeps/{id}/events         live sweep progress (Server-Sent Events)
//	GET  /v1/processes                  built-in process decks
//	GET  /v1/tests                      built-in march algorithms
//	GET  /healthz                       liveness
//	GET  /metrics                       counters (expvar JSON; ?format=prometheus for text exposition)
//	GET  /debug/trace/{id}              per-job Chrome trace-event JSON (?format=tree for text,
//	                                    ?format=spans for the wire span set the gateway merges)
//	GET  /debug/pprof/*                 runtime profiles (only with Config.EnablePprof)
package server

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/cerr"
	"repro/internal/chaos"
	"repro/internal/cjson"
	"repro/internal/compiler"
	"repro/internal/gds"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/tech"
)

// MaxRequestBody bounds a compile request body (inline decks and
// plane files included).
const MaxRequestBody = 8 << 20

// DefaultTraceBudget bounds how many completed job traces the server
// retains for GET /debug/trace/{id} (FIFO eviction).
const DefaultTraceBudget = 512

// Config wires a server.
type Config struct {
	Queue *jobs.Queue
	Cache *cache.Cache
	// Store is the optional disk tier under the in-memory cache.
	// Memory misses probe the store (promoting hits), compiles persist
	// to it, and daemon restarts over the same directory stay warm.
	// Nil disables the tier.
	Store *store.Store
	// LogWriter receives one JSON line per request; nil disables
	// request logging.
	LogWriter io.Writer
	// SyncWait bounds how long a synchronous POST /v1/compile waits
	// before falling back to a 202 + job handle; <= 0 means wait for
	// the job's own deadline.
	SyncWait time.Duration
	// Metrics is the telemetry registry exposed on /metrics. Share it
	// with jobs.Config.Registry so the queue's histograms appear in
	// the same exposition. Nil constructs a private registry.
	Metrics *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// SlowCompile is the forensics threshold: any compile whose
	// execution exceeds it has its span tree dumped to SlowLogWriter.
	// <= 0 disables the slow-compile log.
	SlowCompile time.Duration
	// SlowLogWriter receives slow-compile span trees; nil falls back
	// to LogWriter.
	SlowLogWriter io.Writer
	// TraceBudget bounds retained per-job traces; <= 0 means
	// DefaultTraceBudget.
	TraceBudget int
	// SweepMaxPoints caps one sweep's expanded cross product; <= 0
	// means sweep.DefaultMaxPoints.
	SweepMaxPoints int
	// SweepRetain caps remembered sweeps; <= 0 means
	// sweep.DefaultRetain.
	SweepRetain int
	// CompileParallelism is the per-compile goroutine fan-out applied
	// to requests that leave the knob at 0 (requests naming an
	// explicit parallelism keep it). Because the compiler's output is
	// byte-identical at every parallelism, this default is invisible
	// to the content-addressed cache — it only changes wall-clock
	// time. <= 0 leaves compiles serial.
	CompileParallelism int
	// SweepJournal, when non-nil, checkpoints every sweep to disk so a
	// restarted daemon resumes in-flight sweeps (see ResumeSweeps).
	SweepJournal *sweep.Journal
	// Chaos, when non-nil, is the scripted fault injector: the server
	// installs it on compile contexts (stage checkpoints consult it)
	// and exposes chaos_injections_total. Store/cache/queue injection
	// is wired by the caller via their own configs.
	Chaos *chaos.Injector
	// EnableStacks mounts GET /debug/stacks: a full goroutine dump
	// (SIGQUIT-style, without killing the process) for diagnosing
	// stuck drains.
	EnableStacks bool
	// Cluster, when non-nil, identifies this daemon's place in a
	// federation: /healthz reports the shard identity and fleet view,
	// and the cluster gauges join the /metrics expositions. The
	// interface keeps this package independent of internal/cluster —
	// the command wires the concrete view in.
	Cluster ClusterInfo
	// SSEHeartbeat is the keep-alive cadence of the sweep event stream
	// (GET /v1/sweeps/{id}/events); <= 0 means
	// sweep.DefaultEventHeartbeat.
	SSEHeartbeat time.Duration
}

// ClusterInfo is the server's read-only window onto the federation
// layer.
type ClusterInfo interface {
	// Self is this shard's own base URL in the ring.
	Self() string
	// Gateway is the advertised gateway URL ("" when none).
	Gateway() string
	// RingVersion bumps on every member up/down transition.
	RingVersion() uint64
	// PeersUp / PeersTotal describe the fleet as this shard sees it.
	PeersUp() int
	PeersTotal() int
}

// Server is the HTTP layer. Construct with New; serve s.Handler().
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	start  time.Time
	logMu  sync.Mutex
	sweeps *sweep.Manager

	jobMu      sync.Mutex
	jobsByID   map[string]*jobs.Job
	keyByID    map[string]string
	traceByID  map[string]*obs.Trace
	traceOrder []string // FIFO eviction order for traceByID

	// expvar-backed counters (unpublished maps so multiple servers can
	// coexist in one process, e.g. under test).
	metrics  *expvar.Map
	byStatus *expvar.Map
	byCode   *expvar.Map

	// obs registry instruments (dual exposition on /metrics).
	obsReg       *obs.Registry
	httpRequests *obs.Counter
	httpDur      *obs.Histogram
	cacheHits    *obs.Counter
	storeHits    *obs.Counter
	cacheMisses  *obs.Counter
	dedupes      *obs.Counter
	compileDur   *obs.Histogram
	stageDur     *obs.HistogramVec
	slowCompiles *obs.Counter
	parStages    *obs.Counter
	parDegree    *obs.Histogram
}

// New builds the server and its routing table.
func New(cfg Config) *Server {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.SlowLogWriter == nil {
		cfg.SlowLogWriter = cfg.LogWriter
	}
	if cfg.TraceBudget <= 0 {
		cfg.TraceBudget = DefaultTraceBudget
	}
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		start:     time.Now(),
		jobsByID:  map[string]*jobs.Job{},
		keyByID:   map[string]string{},
		traceByID: map[string]*obs.Trace{},
		metrics:   new(expvar.Map).Init(),
		byStatus:  new(expvar.Map).Init(),
		byCode:    new(expvar.Map).Init(),
		obsReg:    cfg.Metrics,
	}
	s.metrics.Set("responses_by_status", s.byStatus)
	s.metrics.Set("errors_by_code", s.byCode)
	s.registerMetrics()

	// The sweep manager shares the server's queue, two-tier lookup and
	// compile pipeline, so sweep points dedup against interactive
	// traffic and fill the same caches.
	s.sweeps = sweep.NewManager(sweep.Config{
		Queue: cfg.Queue,
		Lookup: func(key string) (*cache.Entry, bool) {
			e, _, ok := s.lookupEntry(key)
			return e, ok
		},
		Run: func(ctx context.Context, key string, _ canon.Request, p compiler.Params) (*cache.Entry, error) {
			runStart := time.Now()
			entry, err := s.runCompile(ctx, key, p)
			s.observeCompile(obs.FromContext(ctx), time.Since(runStart), key, err)
			return entry, err
		},
		OnJob:     s.trackJob,
		Registry:  cfg.Metrics,
		MaxPoints: cfg.SweepMaxPoints,
		Retain:    cfg.SweepRetain,
		Journal:   cfg.SweepJournal,
		Chaos:     cfg.Chaos,
	})

	s.route("POST", "/v1/compile", s.handleCompile)
	s.route("GET", "/v1/jobs/{id}", s.handleJobStatus)
	s.route("GET", "/v1/jobs/{id}/result", s.handleJobResult)
	s.route("GET, HEAD", "/v1/jobs/{id}/artifact/{name}", s.handleJobArtifact)
	s.route("GET, HEAD", "/v1/objects/{key}", s.handleObject)
	s.route("GET", "/v1/objects/{key}/report", s.handleObjectReport)
	s.route("POST", "/v1/sweeps", s.handleSweepCreate)
	s.route("GET", "/v1/sweeps/{id}", s.handleSweepStatus)
	s.route("GET", "/v1/sweeps/{id}/results", s.handleSweepResults)
	s.route("GET", "/v1/sweeps/{id}/events", s.handleSweepEvents)
	s.route("GET", "/v1/processes", s.handleProcesses)
	s.route("GET", "/v1/tests", s.handleTests)
	s.route("GET", "/v1/debug/traces/{id}", s.handleTraceV1)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Deprecated alias of /v1/debug/traces/{id}; gateways in the field
	// still fetch span sets from it, so it stays.
	s.mux.HandleFunc("GET /debug/trace/{id}", s.handleTrace)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	if cfg.EnableStacks {
		s.route("GET", "/v1/debug/stacks", handleStacks)
		// Deprecated alias of /v1/debug/stacks.
		s.mux.HandleFunc("GET /debug/stacks", handleStacks)
	}
	return s
}

// ResumeSweeps re-launches journaled in-flight sweeps from a previous
// process over the same journal directory. Finished points replay
// through the content-addressed store lookup (zero recompiles);
// unfinished points re-enter the queue. Call once, after the daemon's
// listener is up or about to be. Returns how many sweeps resumed.
func (s *Server) ResumeSweeps() (int, error) {
	return s.sweeps.Resume()
}

// handleStacks is GET /debug/stacks: the stack of every live
// goroutine, the in-process equivalent of SIGQUIT for diagnosing
// stuck drains or wedged workers.
func handleStacks(w http.ResponseWriter, r *http.Request) {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		if len(buf) >= 64<<20 {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(buf)
}

// route registers a method-specific handler plus a bare-path fallback
// that answers any other method with an enveloped 405 carrying the
// Allow header. (Go 1.22 mux method patterns are more specific than
// the bare pattern, so the fallback only fires on method mismatch;
// without it the mux's built-in 405 would bypass the envelope.)
// allow is the full Allow list ("GET, HEAD"); its first token is the
// mux method pattern — a GET pattern also matches HEAD, so "GET,
// HEAD" routes both through h while advertising both in the 405.
func (s *Server) route(allow, pattern string, h http.HandlerFunc) {
	method, _, _ := strings.Cut(allow, ",")
	s.mux.HandleFunc(method+" "+pattern, h)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		s.writeError(w, cerr.New(cerr.CodeBadRequest,
			"server: method %s not allowed on %s", r.Method, pattern),
			http.StatusMethodNotAllowed)
	})
}

// registerMetrics wires the server's instruments plus the runtime
// gauges (uptime, goroutines, build info) and the cache/store gauges
// into the obs registry.
func (s *Server) registerMetrics() {
	r := s.obsReg
	s.httpRequests = r.Counter("http_requests_total", "HTTP requests served.")
	s.httpDur = r.Histogram("http_request_duration_seconds", "HTTP request handling latency.", nil)
	s.cacheHits = r.Counter("compile_cache_hits_total", "Compile submissions served from the artifact cache (either tier).")
	s.storeHits = r.Counter("compile_store_hits_total", "Compile submissions served from the disk store tier (memory miss, disk hit).")
	s.cacheMisses = r.Counter("compile_cache_misses_total", "Compile submissions that missed both cache tiers.")
	s.dedupes = r.Counter("compile_deduped_total", "Compile submissions coalesced onto an identical in-flight job.")
	s.compileDur = r.Histogram("compile_duration_seconds", "End-to-end compile execution time on a worker.", nil)
	s.stageDur = r.HistogramVec("compile_stage_duration_seconds",
		"Per-span pipeline stage latency (queue wait, compiler stages, bounded kernels).", "stage", nil)
	s.slowCompiles = r.Counter("compile_slow_total", "Compiles that exceeded the slow-compile threshold.")
	s.parStages = r.Counter("compile_parallel_stages_total",
		"Concurrent stage fan-outs executed across all compiles (leafcells∥microcode, multi-start floorplan, analysis transients).")
	s.parDegree = r.Histogram("compile_parallelism",
		"Per-compile goroutine fan-out bound (the parallelism knob after server defaulting).",
		[]float64{1, 2, 4, 8, 16, 32, 64})

	r.GaugeFunc("uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("go_goroutines", "Live goroutine count.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.Info("build_info", "Build metadata from debug.ReadBuildInfo.", buildInfoLabels())
	if c := s.cfg.Cache; c != nil {
		r.GaugeFunc("cache_bytes", "Resident artifact cache size in bytes.",
			func() float64 { return float64(c.Stats().Bytes) })
		r.GaugeFunc("cache_entries", "Resident artifact cache entry count.",
			func() float64 { return float64(c.Stats().Entries) })
	}
	if st := s.cfg.Store; st != nil {
		r.GaugeFunc("store_bytes", "Resident disk store size in bytes.",
			func() float64 { return float64(st.Stats().Bytes) })
		r.GaugeFunc("store_entries", "Disk store object count.",
			func() float64 { return float64(st.Stats().Entries) })
		r.GaugeFunc("store_hits", "Disk store read hits (verified objects served).",
			func() float64 { return float64(st.Stats().Hits) })
		r.GaugeFunc("store_misses", "Disk store read misses.",
			func() float64 { return float64(st.Stats().Misses) })
		r.GaugeFunc("store_evictions", "Disk store objects removed by the byte-budget GC.",
			func() float64 { return float64(st.Stats().Evictions) })
		r.GaugeFunc("store_corrupt", "Disk store objects that failed verification and were quarantined.",
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
	if cl := s.cfg.Cluster; cl != nil {
		r.GaugeFunc("cluster_ring_version", "Monotonic ring version; bumps on every member up/down transition.",
			func() float64 { return float64(cl.RingVersion()) })
		r.GaugeFunc("cluster_peers_up", "Fleet members currently considered healthy.",
			func() float64 { return float64(cl.PeersUp()) })
		r.GaugeFunc("cluster_peers_total", "Fleet members in the configured ring.",
			func() float64 { return float64(cl.PeersTotal()) })
	}
	if in := s.cfg.Chaos; in != nil {
		r.CounterFunc("chaos_injections_total", "Scripted faults the chaos injector has fired.",
			func() float64 { return float64(in.Fired()) })
	}
	if q := s.cfg.Queue; q != nil {
		r.GaugeFunc("compiles_inflight", "Compiles currently executing on workers.",
			func() float64 { return float64(q.Stats().Running) })
		r.GaugeFunc("queue_depth", "Compile jobs queued and not yet running.",
			func() float64 { return float64(q.Stats().Queued) })
	}
}

// buildInfoLabels extracts the build-info idiom labels: Go toolchain
// version, module version and VCS revision when stamped.
func buildInfoLabels() map[string]string {
	labels := map[string]string{"go_version": runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			labels["version"] = bi.Main.Version
		}
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				labels["revision"] = kv.Value
			case "vcs.modified":
				labels["modified"] = kv.Value
			}
		}
	}
	return labels
}

// Handler returns the root handler with request logging and counting
// wrapped around the routing table.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		startT := time.Now()
		rw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.mux.ServeHTTP(rw, r)
		dur := time.Since(startT)
		s.metrics.Add("requests_total", 1)
		s.byStatus.Add(fmt.Sprintf("%d", rw.status), 1)
		s.httpRequests.Inc()
		s.httpDur.ObserveDuration(dur)
		s.logRequest(r, rw, dur)
	})
}

// statusWriter captures the response status and size for logging.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	// meta carries handler-set annotations (cache hit, key, code) into
	// the request log.
	meta struct {
		key, cacheState, errCode string
	}
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so SSE handlers can stream
// through the logging wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logRequest emits one structured JSON line per request.
func (s *Server) logRequest(r *http.Request, rw *statusWriter, dur time.Duration) {
	if s.cfg.LogWriter == nil {
		return
	}
	line := map[string]any{
		"ts":     time.Now().UTC().Format(time.RFC3339Nano),
		"method": r.Method,
		"path":   r.URL.Path,
		"status": rw.status,
		"dur_ms": float64(dur.Microseconds()) / 1000,
		"bytes":  rw.bytes,
		"remote": r.RemoteAddr,
	}
	if rw.meta.key != "" {
		line["key"] = rw.meta.key
	}
	if rw.meta.cacheState != "" {
		line["cache"] = rw.meta.cacheState
	}
	if rw.meta.errCode != "" {
		line["code"] = rw.meta.errCode
	}
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.cfg.LogWriter.Write(append(b, '\n'))
}

// HTTPStatus maps the cerr taxonomy onto HTTP statuses. The mapping
// is part of the service contract and documented in the README:
//
//	ERR_BAD_REQUEST, ERR_INVALID_PARAMS,
//	ERR_DECK_PARSE, ERR_MARCH_PARSE,
//	ERR_PLANE_PARSE                        -> 400 Bad Request
//	ERR_GEOMETRY, ERR_NETLIST, ERR_FLOORPLAN,
//	ERR_SIM_DIVERGED, ERR_SIM_SINGULAR,
//	ERR_NON_FINITE, ERR_REPAIR_FAILED      -> 422 Unprocessable Entity
//	ERR_BUDGET_EXCEEDED                    -> 504 Gateway Timeout
//	ERR_OVERLOADED                         -> 429 Too Many Requests (+ Retry-After)
//	ERR_INTERNAL, ERR_UNKNOWN              -> 500 Internal Server Error
func HTTPStatus(err error) int {
	switch cerr.CodeOf(err) {
	case cerr.CodeBadRequest, cerr.CodeInvalidParams, cerr.CodeDeckParse, cerr.CodeMarchParse, cerr.CodePlaneParse:
		return http.StatusBadRequest
	case cerr.CodeGeometry, cerr.CodeNetlist, cerr.CodeFloorplan,
		cerr.CodeSimDiverged, cerr.CodeSimSingular, cerr.CodeNonFinite, cerr.CodeRepairFailed:
		return http.StatusUnprocessableEntity
	case cerr.CodeBudgetExceeded:
		return http.StatusGatewayTimeout
	case cerr.CodeOverloaded:
		return http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError
	}
}

// retryAfterSeconds computes the Retry-After hint for shed load: the
// observed p50 compile latency scaled by how many queue drains stand
// between the client and a free worker, clamped to [1s, 120s]. With
// no latency data yet (cold process) the floor applies — 1s is long
// enough to matter, short enough to keep a burst's tail latency sane.
func (s *Server) retryAfterSeconds() int {
	p50 := s.compileDur.Snapshot().Quantile(0.5)
	var backlog float64
	if q := s.cfg.Queue; q != nil {
		qs := q.Stats()
		if qs.Workers > 0 {
			backlog = float64(qs.Queued+qs.Running) / float64(qs.Workers)
		}
	}
	secs := int(p50 * (1 + backlog))
	if secs < 1 {
		secs = 1
	}
	if secs > 120 {
		secs = 120
	}
	return secs
}

// wireError is the envelope's error member.
type wireError struct {
	Code    string `json:"code"`
	Stage   string `json:"stage,omitempty"`
	Message string `json:"message"`
}

// envelope is the uniform /v1 response document: exactly one payload
// member (job, sweep or data) plus an explicit error slot that is
// null on success. Paged collection responses additionally carry the
// page metadata beside the payload.
type envelope struct {
	Job   any         `json:"job,omitempty"`
	Sweep any         `json:"sweep,omitempty"`
	Data  any         `json:"data,omitempty"`
	Page  *sweep.Page `json:"page,omitempty"`
	Error *wireError  `json:"error"`
}

// writeError renders err in the envelope with its mapped (or
// overridden) status.
func (s *Server) writeError(w http.ResponseWriter, err error, statusOverride int) {
	status := statusOverride
	if status == 0 {
		status = HTTPStatus(err)
	}
	if status == http.StatusTooManyRequests {
		// Shed load carries a concrete hint: the observed p50 compile
		// latency scaled by the queue backlog. Part of the documented
		// retry contract.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	we := &wireError{
		Code:    cerr.CodeOf(err).String(),
		Stage:   cerr.StageOf(err),
		Message: err.Error(),
	}
	s.byCode.Add(we.Code, 1)
	if rw, ok := w.(*statusWriter); ok {
		rw.meta.errCode = we.Code
	}
	s.writeJSON(w, status, envelope{Error: we})
}

// writeJob / writeSweep / writeData render a success envelope with
// the given payload member.
func (s *Server) writeJob(w http.ResponseWriter, status int, v any) {
	s.writeJSON(w, status, envelope{Job: v})
}

func (s *Server) writeSweep(w http.ResponseWriter, status int, v any) {
	s.writeJSON(w, status, envelope{Sweep: v})
}

func (s *Server) writeData(w http.ResponseWriter, status int, v any) {
	s.writeJSON(w, status, envelope{Data: v})
}

// writeJSON renders v as canonical JSON. A value that cannot be
// encoded (a non-finite float) is answered with a JSON 500 envelope.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := cjson.MarshalIndent(v)
	if err != nil {
		status = http.StatusInternalServerError
		b = []byte(`{"error":{"code":"ERR_INTERNAL","message":"response encoding failed"}}` + "\n")
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	w.Write(b)
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

// lookupEntry probes the two-tier artifact cache: the in-memory LRU
// first, then the disk store, promoting disk hits into memory. The
// returned tier is "hit", "hit-disk" or "miss".
func (s *Server) lookupEntry(key string) (*cache.Entry, string, bool) {
	if e, ok := s.cfg.Cache.Get(key); ok {
		return e, "hit", true
	}
	if st := s.cfg.Store; st != nil {
		if e, ok := st.Get(key); ok {
			s.cfg.Cache.Put(e)
			return e, "hit-disk", true
		}
	}
	return nil, "miss", false
}

// handleCompile is POST /v1/compile.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	startT := time.Now()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	if err != nil {
		s.writeError(w, cerr.Wrap(cerr.CodeInvalidParams, err, "server: request body"), http.StatusRequestEntityTooLarge)
		return
	}
	req, err := canon.ParseRequest(body)
	if err != nil {
		s.writeError(w, err, 0)
		return
	}
	params, err := req.Params()
	if err != nil {
		s.writeError(w, err, 0)
		return
	}
	key, err := canon.KeyOfParams(params)
	if err != nil {
		s.writeError(w, err, 0)
		return
	}
	// Server-side concurrency default. Applied strictly AFTER keying:
	// parallelism is an execution knob the canonical key excludes, so
	// a request compiled serially elsewhere still hits this entry.
	if params.Parallelism == 0 && s.cfg.CompileParallelism > 0 {
		params.Parallelism = s.cfg.CompileParallelism
	}
	if rw, ok := w.(*statusWriter); ok {
		rw.meta.key = key
	}
	pri, err := jobs.ParsePriority(r.URL.Query().Get("priority"))
	if err != nil {
		s.writeError(w, err, 0)
		return
	}

	// Content-addressed fast path: an identical fully-validated input
	// has already been compiled, in this process (memory tier) or a
	// previous one (disk tier).
	if entry, tier, ok := s.lookupEntry(key); ok {
		s.metrics.Add("compile_cache_hits", 1)
		s.cacheHits.Inc()
		if tier == "hit-disk" {
			s.metrics.Add("compile_store_hits", 1)
			s.storeHits.Inc()
		}
		s.annotateCache(w, tier)
		resp := s.entryResponse(entry, "", false, startT, true)
		resp.CacheTier = tier
		s.writeJob(w, http.StatusOK, resp)
		return
	}
	s.annotateCache(w, "miss")
	s.metrics.Add("compile_cache_misses", 1)
	s.cacheMisses.Inc()

	// Every submission carries a trace: the queue records the wait span,
	// the pipeline records its stage spans, and the completed tree is
	// retrievable via GET /debug/trace/{job_id}. Deduped submissions
	// share the first submitter's trace. A traceparent header continues
	// the sender's distributed trace — same trace ID, with the remote
	// span remembered so the gateway's merge parents this shard's spans
	// under its proxy.route span.
	tr := obs.NewTrace("")
	if tid, parent, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceHeader)); ok {
		tr = obs.NewTraceRemote(tid, parent)
	}
	job, deduped, err := s.cfg.Queue.SubmitTraced(key, pri, tr, func(ctx context.Context) (any, error) {
		runStart := time.Now()
		entry, cmpErr := s.runCompile(ctx, key, params)
		s.observeCompile(obs.FromContext(ctx), time.Since(runStart), key, cmpErr)
		if cmpErr != nil {
			return nil, cmpErr
		}
		return entry, nil
	})
	if err != nil {
		// Overload (full or draining queue) back-pressures as
		// ERR_OVERLOADED -> 429 + Retry-After via the standard mapping.
		s.writeError(w, err, 0)
		return
	}
	s.trackJob(job, key)
	if deduped {
		s.metrics.Add("compile_deduped", 1)
		s.dedupes.Inc()
	}

	if r.URL.Query().Get("async") != "" {
		s.writeJob(w, http.StatusAccepted, compileResponse{
			Key: key, JobID: job.ID, State: job.State().String(),
			Deduped: deduped, ElapsedMs: msSince(startT),
		})
		return
	}

	waitCtx := r.Context()
	if s.cfg.SyncWait > 0 {
		var cancel context.CancelFunc
		waitCtx, cancel = context.WithTimeout(waitCtx, s.cfg.SyncWait)
		defer cancel()
	}
	value, jerr := job.Result(waitCtx)
	if jerr != nil {
		if waitCtx.Err() != nil && job.State() != jobs.StateFailed {
			// The wait budget expired but the job lives on: hand back a
			// handle instead of an error.
			s.writeJob(w, http.StatusAccepted, compileResponse{
				Key: key, JobID: job.ID, State: job.State().String(),
				Deduped: deduped, ElapsedMs: msSince(startT),
			})
			return
		}
		s.writeError(w, jerr, 0)
		return
	}
	entry := value.(*cache.Entry)
	resp := s.entryResponse(entry, job.ID, deduped, startT, false)
	s.writeJob(w, http.StatusOK, resp)
}

// runCompile executes the pipeline under the job context, renders the
// cacheable artifact set and fills both cache tiers.
func (s *Server) runCompile(ctx context.Context, key string, params compiler.Params) (*cache.Entry, error) {
	ctx = chaos.WithContext(ctx, s.cfg.Chaos)
	d, err := compiler.CompileCtx(ctx, params)
	if err != nil {
		return nil, err
	}
	js, err := d.JSON()
	if err != nil {
		return nil, cerr.Wrap(cerr.CodeInternal, err, "server: report rendering")
	}
	entry := &cache.Entry{
		Key:       key,
		Report:    []byte(js),
		Artifacts: map[string][]byte{},
		Degraded:  len(d.Degradations) > 0,
	}
	entry.Artifacts["datasheet.json"] = []byte(js)
	entry.Artifacts["datasheet.txt"] = []byte(d.Datasheet())
	var and, or strings.Builder
	if err := d.Prog.WritePlanes(&and, &or); err == nil {
		entry.Artifacts["trpla_and.plane"] = []byte(and.String())
		entry.Artifacts["trpla_or.plane"] = []byte(or.String())
	}
	if d.Top != nil {
		entry.Artifacts["layout.svg"] = []byte(render.SVG(d.Top, render.Options{Depth: 0}))
		var g strings.Builder
		if err := gds.Write(&g, d.Top, d.Top.Name); err == nil {
			entry.Artifacts["layout.gds"] = []byte(g.String())
		}
	}
	s.cfg.Cache.Put(entry)
	if st := s.cfg.Store; st != nil {
		// Disk persistence is best-effort: a full disk or an over-budget
		// object must not fail the compile that produced the entry.
		if perr := st.Put(entry); perr != nil {
			s.metrics.Add("store_put_errors", 1)
		}
	}
	s.metrics.Add("compiles_total", 1)
	return entry, nil
}

// observeCompile folds one finished compile into the telemetry: the
// end-to-end duration histogram, every recorded span (queue wait,
// compiler stages, bounded kernels) into the per-stage histogram vec,
// and — when the execution exceeded the slow-compile threshold — the
// span tree into the forensics log.
func (s *Server) observeCompile(tr *obs.Trace, dur time.Duration, key string, err error) {
	s.compileDur.ObserveDuration(dur)
	for _, sp := range tr.Spans() {
		s.stageDur.With(sp.Name).ObserveDuration(sp.Dur)
		// The compiler annotates its root span with the effective
		// concurrency: fold the fan-out degree into a histogram and
		// count the concurrent stage groups that actually ran.
		if sp.Name == "compile" {
			for _, a := range sp.Attrs {
				switch a.Key {
				case "parallelism":
					if v, perr := strconv.Atoi(a.Value); perr == nil {
						s.parDegree.Observe(float64(v))
					}
				case "parallel_stages":
					if v, perr := strconv.Atoi(a.Value); perr == nil && v > 0 {
						s.parStages.Add(uint64(v))
					}
				}
			}
		}
	}
	if s.cfg.SlowCompile <= 0 || dur < s.cfg.SlowCompile {
		return
	}
	s.slowCompiles.Inc()
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
	b.WriteString(tr.Tree())
	s.logMu.Lock()
	defer s.logMu.Unlock()
	io.WriteString(w, b.String())
}

// entryResponse builds the "job" payload for a completed entry.
func (s *Server) entryResponse(e *cache.Entry, jobID string, deduped bool, startT time.Time, cached bool) compileResponse {
	sizes := make(map[string]int, len(e.Artifacts))
	for name, b := range e.Artifacts {
		sizes[name] = len(b)
	}
	return compileResponse{
		Key: e.Key, JobID: jobID, State: jobs.StateDone.String(),
		Cached: cached, Deduped: deduped, Degraded: e.Degraded,
		ElapsedMs: msSince(startT),
		Artifacts: sizes,
		Report:    json.RawMessage(e.Report),
	}
}

func (s *Server) annotateCache(w http.ResponseWriter, state string) {
	if rw, ok := w.(*statusWriter); ok {
		rw.meta.cacheState = state
	}
}

// trackJob registers a job for the status endpoints and retains its
// trace for GET /debug/trace/{id}, evicting the oldest trace beyond
// the configured budget (FIFO — forensics favour recent jobs).
func (s *Server) trackJob(j *jobs.Job, key string) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	s.jobsByID[j.ID] = j
	s.keyByID[j.ID] = key
	tr := j.Trace()
	if tr == nil {
		return
	}
	if _, seen := s.traceByID[j.ID]; seen {
		return
	}
	s.traceByID[j.ID] = tr
	s.traceOrder = append(s.traceOrder, j.ID)
	for len(s.traceOrder) > s.cfg.TraceBudget {
		delete(s.traceByID, s.traceOrder[0])
		s.traceOrder = s.traceOrder[1:]
	}
}

// lookupTrace resolves a retained trace by job id.
func (s *Server) lookupTrace(id string) (*obs.Trace, bool) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	tr, ok := s.traceByID[id]
	return tr, ok
}

// lookupJob resolves a tracked job by id.
func (s *Server) lookupJob(id string) (*jobs.Job, string, bool) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	j, ok := s.jobsByID[id]
	return j, s.keyByID[id], ok
}

// jobStatusBody is the "job" payload of GET /v1/jobs/{id}.
type jobStatusBody struct {
	JobID     string  `json:"job_id"`
	Key       string  `json:"key"`
	State     string  `json:"state"`
	Priority  string  `json:"priority"`
	Attached  int64   `json:"attached"`
	QueuedMs  float64 `json:"queued_ms"`
	RunMs     float64 `json:"run_ms,omitempty"`
	Error     string  `json:"error,omitempty"`
	ErrorCode string  `json:"error_code,omitempty"`
}

// handleJobStatus is GET /v1/jobs/{id}.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, key, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		s.writeError(w, cerr.New(cerr.CodeInvalidParams, "server: unknown job %q", r.PathValue("id")), http.StatusNotFound)
		return
	}
	submitted, started, finished := j.Times()
	body := jobStatusBody{
		JobID: j.ID, Key: key, State: j.State().String(),
		Priority: j.Priority.String(), Attached: j.Attached(),
	}
	switch {
	case started.IsZero() && !finished.IsZero():
		// Cancelled before execution (drain fast-fail): the queue wait
		// ended when the job was failed, not now.
		body.QueuedMs = float64(finished.Sub(submitted).Microseconds()) / 1000
	case started.IsZero():
		body.QueuedMs = msSince(submitted)
	default:
		body.QueuedMs = float64(started.Sub(submitted).Microseconds()) / 1000
	}
	if !started.IsZero() {
		end := finished
		if end.IsZero() {
			end = time.Now()
		}
		body.RunMs = float64(end.Sub(started).Microseconds()) / 1000
	}
	if _, jerr, done := j.Peek(); done && jerr != nil {
		body.Error = jerr.Error()
		body.ErrorCode = cerr.CodeOf(jerr).String()
	}
	s.writeJob(w, http.StatusOK, body)
}

// handleJobResult is GET /v1/jobs/{id}/result: the canonical compile
// report under the envelope's "data" member.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, _, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		s.writeError(w, cerr.New(cerr.CodeInvalidParams, "server: unknown job %q", r.PathValue("id")), http.StatusNotFound)
		return
	}
	value, jerr, done := j.Peek()
	if !done {
		s.writeJob(w, http.StatusAccepted, map[string]string{
			"job_id": j.ID, "state": j.State().String(),
		})
		return
	}
	if jerr != nil {
		s.writeError(w, jerr, 0)
		return
	}
	entry := value.(*cache.Entry)
	s.writeData(w, http.StatusOK, json.RawMessage(entry.Report))
}

// handleJobArtifact is GET /v1/jobs/{id}/artifact/{name}: a raw
// artifact stream (no envelope) with Content-Length and a per-kind
// Content-Type.
func (s *Server) handleJobArtifact(w http.ResponseWriter, r *http.Request) {
	j, key, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		s.writeError(w, cerr.New(cerr.CodeInvalidParams, "server: unknown job %q", r.PathValue("id")), http.StatusNotFound)
		return
	}
	name := r.PathValue("name")
	value, jerr, done := j.Peek()
	if !done {
		s.writeJob(w, http.StatusAccepted, map[string]string{"job_id": j.ID, "state": j.State().String()})
		return
	}
	if jerr != nil {
		s.writeError(w, jerr, 0)
		return
	}
	entry := value.(*cache.Entry)
	body, ok := entry.Artifacts[name]
	if !ok {
		// The job's entry may also have been evicted and refetched;
		// consult the two-tier cache as a second chance.
		if cached, _, hit := s.lookupEntry(key); hit {
			if b, ok2 := cached.Artifacts[name]; ok2 {
				writeArtifact(w, r, name, b)
				return
			}
		}
		s.writeError(w, cerr.New(cerr.CodeInvalidParams,
			"server: no artifact %q (have %v)", name, entry.ArtifactNames()), http.StatusNotFound)
		return
	}
	writeArtifact(w, r, name, body)
}

// handleObject is GET/HEAD /v1/objects/{key}: the verbatim on-disk
// object image for a content key — the shard-to-shard artifact fetch
// endpoint. The bytes are served UNVERIFIED by design: the fetching
// peer runs them through its own verified-read path, so a corrupt
// image quarantines on the fetcher exactly like local disk rot, and
// this handler never pays a hash pass.
func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	st := s.cfg.Store
	if st == nil {
		s.writeError(w, cerr.New(cerr.CodeInvalidParams, "server: no object store configured"), http.StatusNotFound)
		return
	}
	key := r.PathValue("key")
	raw, ok := st.ReadRaw(key)
	if !ok {
		s.writeError(w, cerr.New(cerr.CodeInvalidParams, "server: no object %s", key), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		w.Write(raw)
	}
}

// handleObjectReport is GET /v1/objects/{key}/report: the cached
// compile report for a content key, served only when a cache tier
// (memory, disk, or a ring peer via the store's fetch seam) already
// holds it — it never triggers a compile. This is the gateway sweep
// Lookup seam: how a federated sweep tells a warm point from one that
// needs routing, so cluster sweep rows carry the same cached flags a
// warm single daemon would report.
func (s *Server) handleObjectReport(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	entry, _, ok := s.lookupEntry(key)
	if !ok {
		s.writeError(w, cerr.New(cerr.CodeInvalidParams, "server: key %s not cached", key), http.StatusNotFound)
		return
	}
	s.writeData(w, http.StatusOK, map[string]any{
		"key":      key,
		"degraded": entry.Degraded,
		"report":   json.RawMessage(entry.Report),
	})
}

// writeArtifact streams an artifact with its per-kind content type
// and an explicit Content-Length, so clients can size progress bars
// and proxies never have to buffer for chunking. HEAD requests get
// the identical headers with no body — how clients size a download
// without paying for it.
func writeArtifact(w http.ResponseWriter, r *http.Request, name string, body []byte) {
	w.Header().Set("Content-Type", artifactContentType(name))
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		w.Write(body)
	}
}

// artifactContentType maps an artifact name to its media type.
func artifactContentType(name string) string {
	switch {
	case strings.HasSuffix(name, ".json"):
		return "application/json; charset=utf-8"
	case strings.HasSuffix(name, ".svg"):
		return "image/svg+xml"
	case strings.HasSuffix(name, ".gds"):
		return "application/octet-stream"
	default:
		return "text/plain; charset=utf-8"
	}
}

// handleSweepCreate is POST /v1/sweeps.
func (s *Server) handleSweepCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	if err != nil {
		s.writeError(w, cerr.Wrap(cerr.CodeBadRequest, err, "server: sweep body"), http.StatusRequestEntityTooLarge)
		return
	}
	spec, err := sweep.ParseSpec(body)
	if err != nil {
		s.writeError(w, err, 0)
		return
	}
	sw, err := s.sweeps.Create(spec)
	if err != nil {
		s.writeError(w, err, 0)
		return
	}
	s.metrics.Add("sweeps_total", 1)
	s.writeSweep(w, http.StatusAccepted, sw.Status())
}

// handleSweepStatus is GET /v1/sweeps/{id}.
func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweeps.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, cerr.New(cerr.CodeInvalidParams, "server: unknown sweep %q", r.PathValue("id")), http.StatusNotFound)
		return
	}
	s.writeSweep(w, http.StatusOK, sw.Status())
}

// handleSweepResults is GET /v1/sweeps/{id}/results. Without query
// parameters it returns the full document exactly as it always has;
// with ?offset= and/or ?limit= it returns one window of rows and puts
// the page metadata (total, next_offset) beside the payload in the
// envelope.
func (s *Server) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweeps.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, cerr.New(cerr.CodeInvalidParams, "server: unknown sweep %q", r.PathValue("id")), http.StatusNotFound)
		return
	}
	res := sw.Results()
	offset, limit, paged, err := PageParams(r)
	if err != nil {
		s.writeError(w, err, 0)
		return
	}
	if !paged {
		s.writeData(w, http.StatusOK, res)
		return
	}
	win, pg := res.Paginate(offset, limit)
	s.writeJSON(w, http.StatusOK, envelope{Data: win, Page: &pg})
}

// PageParams parses ?offset=&limit= from a collection request. paged
// is false when neither is present (the full-document default). The
// gateway shares it so both serving layers reject malformed windows
// with the same enveloped error.
func PageParams(r *http.Request) (offset, limit int, paged bool, err error) {
	q := r.URL.Query()
	offStr, limStr := q.Get("offset"), q.Get("limit")
	if offStr == "" && limStr == "" {
		return 0, 0, false, nil
	}
	if offStr != "" {
		offset, err = strconv.Atoi(offStr)
		if err != nil || offset < 0 {
			return 0, 0, false, cerr.New(cerr.CodeInvalidParams,
				"server: offset must be a non-negative integer, got %q", offStr)
		}
	}
	if limStr != "" {
		limit, err = strconv.Atoi(limStr)
		if err != nil || limit < 0 {
			return 0, 0, false, cerr.New(cerr.CodeInvalidParams,
				"server: limit must be a non-negative integer, got %q", limStr)
		}
	}
	return offset, limit, true, nil
}

// handleSweepEvents is GET /v1/sweeps/{id}/events: the live progress
// stream (SSE) — every point transition exactly once by cursor, plus
// heartbeats and a terminal summary.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweeps.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, cerr.New(cerr.CodeInvalidParams, "server: unknown sweep %q", r.PathValue("id")), http.StatusNotFound)
		return
	}
	sweep.ServeEvents(w, r, sw, s.cfg.SSEHeartbeat)
}

// handleProcesses is GET /v1/processes.
func (s *Server) handleProcesses(w http.ResponseWriter, r *http.Request) {
	s.writeData(w, http.StatusOK, map[string]any{"processes": tech.Names()})
}

// handleTests is GET /v1/tests.
func (s *Server) handleTests(w http.ResponseWriter, r *http.Request) {
	s.writeData(w, http.StatusOK, map[string]any{"tests": canon.TestNames()})
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	qs := s.cfg.Queue.Stats()
	status := http.StatusOK
	state := "ok"
	if qs.Draining {
		// Shedding state: load balancers should stop routing here.
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	body := map[string]any{
		"status":   state,
		"uptime_s": time.Since(s.start).Seconds(),
		"workers":  qs.Workers,
		// Resume debt: what a restart right now would owe (in-flight
		// sweeps and points, and how many of those points would be lost
		// outright without a journal).
		"sweeps": s.sweeps.Backlog(),
	}
	if cl := s.cfg.Cluster; cl != nil {
		body["role"] = "shard"
		body["self"] = cl.Self()
		if gw := cl.Gateway(); gw != "" {
			body["gateway"] = gw
		}
		body["ring_version"] = cl.RingVersion()
		body["peers_up"] = cl.PeersUp()
		body["peers_total"] = cl.PeersTotal()
	}
	s.writeJSON(w, status, body)
}

// metricsBody is the /metrics document.
type metricsBody struct {
	Server  json.RawMessage `json:"server"`
	Cache   cache.Stats     `json:"cache"`
	Store   *store.Stats    `json:"store,omitempty"`
	Queue   jobs.Stats      `json:"queue"`
	Obs     map[string]any  `json:"obs"`
	UptimeS float64         `json:"uptime_s"`
}

// handleMetrics is GET /metrics: dual exposition. The default is the
// expvar-backed counter map plus cache, store, queue and obs-registry
// snapshots in one JSON document; ?format=prometheus renders the obs
// registry as text exposition format 0.0.4 for scrapers.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		s.obsReg.WritePrometheus(w)
		return
	}
	body := metricsBody{
		Server:  json.RawMessage(s.metrics.String()),
		Cache:   s.cfg.Cache.Stats(),
		Queue:   s.cfg.Queue.Stats(),
		Obs:     s.obsReg.Snapshot(),
		UptimeS: time.Since(s.start).Seconds(),
	}
	if st := s.cfg.Store; st != nil {
		stats := st.Stats()
		body.Store = &stats
	}
	s.writeJSON(w, http.StatusOK, body)
}

// handleTrace is GET /debug/trace/{id}, the deprecated pre-/v1 alias
// of /v1/debug/traces/{id}: the retained span set of a completed (or
// in-flight) job, as Chrome trace-event JSON by default — load it in
// chrome://tracing or Perfetto — or as an indented text tree with
// ?format=tree or a raw span set with ?format=spans.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.renderTrace(w, r, r.URL.Query().Get("format"))
}

// handleTraceV1 is GET /v1/debug/traces/{id}. The representation is
// negotiated: ?format=tree|spans|chrome wins when present, otherwise
// an Accept header of text/plain selects the tree and anything else
// the Chrome trace-event JSON.
func (s *Server) handleTraceV1(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" && strings.HasPrefix(r.Header.Get("Accept"), "text/plain") {
		format = "tree"
	}
	s.renderTrace(w, r, format)
}

// renderTrace renders the trace of job {id} in the given format
// ("tree", "spans", or anything else for Chrome trace-event JSON).
func (s *Server) renderTrace(w http.ResponseWriter, r *http.Request, format string) {
	id := r.PathValue("id")
	tr, ok := s.lookupTrace(id)
	if !ok {
		s.writeError(w, cerr.New(cerr.CodeInvalidParams, "server: no trace for job %q", id), http.StatusNotFound)
		return
	}
	switch format {
	case "tree":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, tr.Tree())
		return
	case "spans":
		// The wire span set a gateway fetches to merge this shard's
		// slice of a distributed trace into the end-to-end view.
		node := ""
		if cl := s.cfg.Cluster; cl != nil {
			node = cl.Self()
		}
		b, err := tr.SpanSet(node).JSON()
		if err != nil {
			s.writeError(w, cerr.Wrap(cerr.CodeInternal, err, "server: span set rendering"), 0)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write(b)
		return
	}
	b, err := tr.ChromeJSON()
	if err != nil {
		s.writeError(w, cerr.Wrap(cerr.CodeInternal, err, "server: trace rendering"), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// Log is a convenience constructor for the structured request logger.
func Log(w io.Writer) *log.Logger { return log.New(w, "", 0) }

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}
