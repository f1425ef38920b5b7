// Package server implements the one BISRAMGEN HTTP/JSON surface that
// both programs serve: bisramgend, the compile daemon, and bisramgate,
// the federation gateway. It owns the route table, the response
// envelope and its error writer, request counting and logging, the
// sweep endpoints, the catalogs, trace rendering, /healthz and
// /metrics. What differs between the two programs sits behind a small
// Backend: the local backend (Config.Backend left nil) compiles on the
// daemon's own queue over internal/cache and internal/store; the fleet
// backend (internal/cluster) routes the same requests to the shards
// that own their content keys. The typed cerr taxonomy maps 1:1 onto
// HTTP statuses.
//
// Envelope: every /v1/* JSON response is one uniform document with
// exactly one payload member and an explicit error slot,
//
//	{ "job" | "sweep" | "data": ..., "error": {code, stage, message} | null }
//
// (artifact bodies, object images, traces and the event stream carry
// their own Content-Type; /healthz and /metrics keep their documented
// shapes). A request with a method the route does not accept is
// answered 405 with an Allow header and the same envelope.
//
// Endpoints:
//
//	POST /v1/compile                    submit (sync by default, ?async=1 for a job handle)
//	GET  /v1/jobs/{id}                  job status
//	GET  /v1/jobs/{id}/result           compile report (canonical JSON, under "data")
//	GET  /v1/jobs/{id}/artifact/{name}  rendered artifact (datasheet, planes, SVG, GDS); HEAD sizes it
//	GET  /v1/objects/{key}              raw store object image (shard-to-shard fetch); HEAD sizes it
//	GET  /v1/objects/{key}/report       cached compile report; never compiles
//	POST /v1/sweeps                     submit a batch sweep (base request + axes)
//	GET  /v1/sweeps/{id}                sweep progress (aggregate + per-point)
//	GET  /v1/sweeps/{id}/results        sweep evaluation rows (?offset=&limit= windows them)
//	GET  /v1/sweeps/{id}/events         live sweep progress (Server-Sent Events)
//	GET  /v1/processes                  built-in process decks
//	GET  /v1/tests                      built-in march algorithms
//	GET  /v1/debug/traces/{id}          per-job Chrome trace-event JSON (?format=tree for text,
//	                                    ?format=spans for the wire span set the gateway merges)
//	GET  /v1/debug/stacks               goroutine dump (only with Config.EnableStacks)
//	GET  /healthz                       liveness
//	GET  /metrics                       obs registry plus cache, store and queue snapshots as JSON
//	                                    (?format=prometheus for text exposition)
//	GET  /debug/pprof/*                 runtime profiles (only with Config.EnablePprof)
package server

import (
	"context"
	"encoding/json"
	"io"
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
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/tech"
)

// MaxRequestBody bounds a compile request body (inline decks and
// plane files included).
const MaxRequestBody = 8 << 20

// Config wires a server.
type Config struct {
	// Backend answers compiles, object reads, health, the sweep seams,
	// and the job and trace reads of ids the Queue does not hold. Nil
	// selects the local daemon backend over Queue, Cache and Store; the
	// fields from Cache down to CompileParallelism configure that
	// backend and are unused with any other.
	Backend Backend
	// Queue runs the sweep points (and, locally, every compile); its
	// stats appear in /metrics and feed the Retry-After hint, and it
	// answers the job and trace reads of every job it holds.
	Queue *jobs.Queue
	Cache *cache.Cache
	// Store is the optional disk tier under the in-memory cache.
	// Memory misses probe the store (promoting hits), compiles persist
	// to it, and daemon restarts over the same directory stay warm.
	// Nil disables the tier.
	Store *store.Store
	// SlowCompile is the forensics threshold: any compile whose
	// execution exceeds it has its span tree dumped to SlowLogWriter.
	// <= 0 disables the slow-compile log.
	SlowCompile time.Duration
	// SlowLogWriter receives slow-compile span trees; nil falls back
	// to LogWriter.
	SlowLogWriter io.Writer
	// CompileParallelism is the per-compile goroutine fan-out applied
	// to compiles that leave the knob at 0, POST /v1/compile requests
	// and sweep points alike (requests naming an explicit parallelism
	// keep it). Because the compiler's output is
	// byte-identical at every parallelism, this default is invisible
	// to the content-addressed cache — it only changes wall-clock
	// time. <= 0 leaves compiles serial.
	CompileParallelism int

	// Cluster, when non-nil, is the federation this process belongs to:
	// the cluster gauges join the /metrics expositions, a daemon's
	// /healthz reports its shard identity and fleet view, and span sets
	// name this process by its Self. The interface keeps this package
	// independent of internal/cluster — the caller wires the concrete
	// view in.
	Cluster ClusterInfo
	// LogWriter receives one JSON line per request; nil disables
	// request logging.
	LogWriter io.Writer
	// Metrics is the telemetry registry exposed on /metrics. Share it
	// with jobs.Config.Registry so the queue's histograms appear in
	// the same exposition. Nil constructs a private registry.
	Metrics *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// EnableStacks mounts GET /v1/debug/stacks: a full goroutine dump
	// (SIGQUIT-style, without killing the process) for diagnosing
	// stuck drains.
	EnableStacks bool
	// SweepJournal, when non-nil, checkpoints every sweep to disk so a
	// restarted daemon resumes in-flight sweeps (see ResumeSweeps).
	SweepJournal *sweep.Journal
	// Chaos, when non-nil, is the scripted fault injector: it reaches
	// the sweep manager's Monte-Carlo estimates and, locally, compile
	// contexts (stage checkpoints consult it), and chaos_injections_total
	// counts it. Store/cache/queue injection is wired by the caller via
	// their own configs.
	Chaos *chaos.Injector
}

// ClusterInfo is the server's read-only window onto the federation
// layer.
type ClusterInfo interface {
	// Self names this process in the fleet: a shard's own base URL in
	// the ring, or the gateway's role name.
	Self() string
	// Gateway is the advertised gateway URL ("" when none).
	Gateway() string
	// RingVersion bumps on every member up/down transition.
	RingVersion() uint64
	// PeersUp / PeersTotal describe the fleet as this shard sees it.
	PeersUp() int
	PeersTotal() int
}

// Backend answers the part of the /v1 surface that differs between the
// daemon, which compiles locally, and the gateway, which routes to the
// shard fleet. The server validates requests before calling it and
// writes any error it returns as the error envelope.
type Backend interface {
	// Compile answers a POST /v1/compile whose body already parsed and
	// keyed.
	Compile(w http.ResponseWriter, r *http.Request, c Compile) error
	// Job answers GET /v1/jobs/{id} for an id the process's own queue
	// does not hold: the status when part is "", else the "result" or
	// the "artifact" named by r.PathValue("name"). It reports false when
	// the job is unknown, which the server answers 404.
	Job(w http.ResponseWriter, r *http.Request, id, part string) bool
	// Object answers GET|HEAD /v1/objects/{key}, or its cached report
	// when report is set.
	Object(w http.ResponseWriter, r *http.Request, key string, report bool) error
	// Trace returns the trace of job id, which the process's own queue
	// does not hold, as a span set.
	Trace(ctx context.Context, id string) (obs.SpanSet, bool)
	// Health adds the backend's members to the /healthz document and
	// returns a non-empty state when it cannot take work (503).
	Health(doc map[string]any) string
	// Lookup and Run are the sweep manager's seams: an already cached
	// entry for a key, and one compile.
	Lookup(key string) (*cache.Entry, bool)
	Run(ctx context.Context, key string, req canon.Request, p compiler.Params) (*cache.Entry, error)
}

// Compile is one validated POST /v1/compile.
type Compile struct {
	Body     []byte // the request body, verbatim
	Key      string
	Params   compiler.Params
	Priority jobs.Priority
	Start    time.Time // when the server began handling the request
}

// Server is the HTTP layer. Construct with New; serve s.Handler().
type Server struct {
	cfg     Config
	backend Backend
	mux     *http.ServeMux
	start   time.Time
	// node names this process in its span sets (ClusterInfo.Self; ""
	// when not federated).
	node   string
	logMu  sync.Mutex
	sweeps *sweep.Manager

	httpRequests *obs.CounterVec // http_requests_total{status}
	httpErrors   *obs.CounterVec // http_errors_total{code}
	httpDur      *obs.Histogram
	// latency is the compile-duration histogram behind the Retry-After
	// hint; nil (no data) over a fleet backend.
	latency *obs.Histogram
}

// New builds the server and its routing table.
func New(cfg Config) *Server {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.SlowLogWriter == nil {
		cfg.SlowLogWriter = cfg.LogWriter
	}
	s := &Server{cfg: cfg, backend: cfg.Backend, mux: http.NewServeMux(), start: time.Now()}
	if cfg.Cluster != nil {
		s.node = cfg.Cluster.Self()
	}
	s.registerMetrics()
	if s.backend == nil {
		s.backend = newLocal(s)
	}
	// The sweep manager shares the backend's lookup and compile seams,
	// so sweep points dedup against interactive traffic and fill the
	// same caches.
	s.sweeps = sweep.NewManager(sweep.Config{
		Queue:    cfg.Queue,
		Lookup:   s.backend.Lookup,
		Run:      s.backend.Run,
		Registry: cfg.Metrics,
		Journal:  cfg.SweepJournal,
		Chaos:    cfg.Chaos,
	})

	s.route("POST", "/v1/compile", s.handleCompile)
	s.route("GET", "/v1/jobs/{id}", s.handleJob(""))
	s.route("GET", "/v1/jobs/{id}/result", s.handleJob("result"))
	// GET patterns also serve HEAD (Go 1.22 mux), hence the wider
	// Allow lists.
	s.route("GET, HEAD", "/v1/jobs/{id}/artifact/{name}", s.handleJob("artifact"))
	s.route("GET, HEAD", "/v1/objects/{key}", s.handleObject(false))
	s.route("GET", "/v1/objects/{key}/report", s.handleObject(true))
	s.route("POST", "/v1/sweeps", s.handleSweepCreate)
	s.route("GET", "/v1/sweeps/{id}", s.handleSweepStatus)
	s.route("GET", "/v1/sweeps/{id}/results", s.handleSweepResults)
	s.route("GET", "/v1/sweeps/{id}/events", s.handleSweepEvents)
	s.route("GET", "/v1/processes", s.handleProcesses)
	s.route("GET", "/v1/tests", s.handleTests)
	s.route("GET", "/v1/debug/traces/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	if cfg.EnableStacks {
		s.route("GET", "/v1/debug/stacks", handleStacks)
	}
	warmTypeCaches()
	return s
}

// warmRequest is the built-in compile request warmTypeCaches resolves.
const warmRequest = `{"words":256,"bpw":8,"bpc":4,"spares":4}`

var warmOnce sync.Once

// warmTypeCaches builds the process-wide canon and cjson type caches
// that a restarted daemon's first request would otherwise pay for: it
// parses and keys one built-in request and encodes one compile
// envelope. Failures are ignored; the first real request would meet
// them again with its own error.
func warmTypeCaches() {
	warmOnce.Do(func() {
		if req, err := canon.ParseRequest([]byte(warmRequest)); err == nil {
			if p, err := req.Params(); err == nil {
				canon.KeyOfParams(p)
			}
		}
		cjson.MarshalIndent(envelope{Job: compileResponse{
			Artifacts: map[string]int{"layout.gds": 1},
			Report:    json.RawMessage(`{"name":"warm"}`),
		}})
	})
}

// ResumeSweeps re-launches journaled in-flight sweeps from a previous
// process over the same journal directory. Finished points replay
// through the content-addressed store lookup (zero recompiles);
// unfinished points re-enter the queue. Call once, after the daemon's
// listener is up or about to be. Returns how many sweeps resumed.
func (s *Server) ResumeSweeps() (int, error) {
	return s.sweeps.Resume()
}

// handleStacks is GET /v1/debug/stacks: the stack of every live
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

// registerMetrics wires the HTTP instruments plus the runtime and
// cluster gauges (uptime, goroutines, build info, ring view) into the
// obs registry.
func (s *Server) registerMetrics() {
	r := s.cfg.Metrics
	s.httpRequests = r.CounterVec("http_requests_total", "HTTP requests served, by response status.", "status")
	s.httpErrors = r.CounterVec("http_errors_total", "Error envelopes written, by error code.", "code")
	s.httpDur = r.Histogram("http_request_duration_seconds", "HTTP request handling latency.", nil)
	r.GaugeFunc("uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("go_goroutines", "Live goroutine count.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.Info("build_info", "Build metadata from debug.ReadBuildInfo.", buildInfoLabels())
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
		s.httpRequests.With(strconv.Itoa(rw.status)).Inc()
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

// httpStatus maps the cerr taxonomy onto HTTP statuses. The mapping
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
func httpStatus(err error) int {
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
// no latency data yet (a cold process, or a gateway, which compiles
// nothing itself) the floor applies — 1s is long enough to matter,
// short enough to keep a burst's tail latency sane.
func (s *Server) retryAfterSeconds() int {
	p50 := s.latency.Snapshot().Quantile(0.5)
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

// envelope is the uniform /v1 response document: exactly one payload
// member (job, sweep or data) plus an explicit error slot that is
// null on success. Paged collection responses additionally carry the
// page metadata beside the payload.
type envelope struct {
	Job   any              `json:"job,omitempty"`
	Sweep any              `json:"sweep,omitempty"`
	Data  any              `json:"data,omitempty"`
	Page  *sweep.Page      `json:"page,omitempty"`
	Error *sweep.WireError `json:"error"`
}

// writeError renders err in the envelope with its mapped (or
// overridden) status.
func (s *Server) writeError(w http.ResponseWriter, err error, statusOverride int) {
	status := statusOverride
	if status == 0 {
		status = httpStatus(err)
	}
	if status == http.StatusTooManyRequests {
		// Shed load carries a concrete hint: the observed p50 compile
		// latency scaled by the queue backlog. Part of the documented
		// retry contract.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	we := &sweep.WireError{
		Code:    cerr.CodeOf(err).String(),
		Stage:   cerr.StageOf(err),
		Message: err.Error(),
	}
	s.httpErrors.With(we.Code).Inc()
	if rw, ok := w.(*statusWriter); ok {
		rw.meta.errCode = we.Code
	}
	WriteJSON(w, status, envelope{Error: we})
}

// WriteJSON renders v as canonical JSON; every JSON document either
// program serves goes through it. A value that cannot be encoded (a
// non-finite float) is answered with a JSON 500 envelope.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	b, err := cjson.MarshalIndent(v)
	if err != nil {
		status = http.StatusInternalServerError
		b = []byte(`{"error":{"code":"ERR_INTERNAL","message":"response encoding failed"}}` + "\n")
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	w.Write(b)
}

// handleCompile is POST /v1/compile: the strict parse and content key
// are the same on every backend, so a gateway rejects exactly what a
// shard would.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	c := Compile{Start: time.Now()}
	var err error
	c.Body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	if err != nil {
		s.writeError(w, cerr.Wrap(cerr.CodeInvalidParams, err, "server: request body"), http.StatusRequestEntityTooLarge)
		return
	}
	req, err := canon.ParseRequest(c.Body)
	if err == nil {
		c.Params, err = req.Params()
	}
	if err == nil {
		c.Key, err = canon.KeyOfParams(c.Params)
	}
	if err == nil {
		if rw, ok := w.(*statusWriter); ok {
			rw.meta.key = c.Key
		}
		c.Priority, err = jobs.ParsePriority(r.URL.Query().Get("priority"))
	}
	if err == nil {
		err = s.backend.Compile(w, r, c)
	}
	if err != nil {
		s.writeError(w, err, 0)
	}
}

// handleJob serves one part of GET /v1/jobs/{id}: from the process's
// own queue when it holds the job, else from the backend.
func (s *Server) handleJob(part string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if j, ok := s.cfg.Queue.Job(id); ok {
			s.writeJob(w, r, j, part)
			return
		}
		if !s.backend.Job(w, r, id, part) {
			s.writeError(w, cerr.New(cerr.CodeInvalidParams, "server: unknown job %q", id), http.StatusNotFound)
		}
	}
}

// writeJob answers one part of a job the queue holds: its status, or,
// once it finished, the report or a named artifact of its entry (a
// gateway route job's entry holds the report only).
func (s *Server) writeJob(w http.ResponseWriter, r *http.Request, j *jobs.Job, part string) {
	if part == "" {
		WriteJSON(w, http.StatusOK, envelope{Job: jobStatus(j)})
		return
	}
	value, jerr, done := j.Peek()
	switch {
	case !done:
		WriteJSON(w, http.StatusAccepted, envelope{Job: map[string]string{"job_id": j.ID, "state": j.State().String()}})
	case jerr != nil:
		s.writeError(w, jerr, 0)
	case part == "result":
		// The canonical compile report under the envelope's "data" member.
		WriteJSON(w, http.StatusOK, envelope{Data: json.RawMessage(value.(*cache.Entry).Report)})
	default:
		s.writeArtifact(w, r, value.(*cache.Entry), r.PathValue("name"))
	}
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

// jobStatus is the status payload of job j.
func jobStatus(j *jobs.Job) jobStatusBody {
	submitted, started, finished := j.Times()
	body := jobStatusBody{
		JobID: j.ID, Key: j.Key, State: j.State().String(),
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
	return body
}

// writeArtifact streams an artifact from a job's own whole entry (the
// cache tiers hold no bodies) with its per-kind content type and an
// explicit Content-Length, so clients can size progress bars and
// proxies never have to buffer for chunking. HEAD requests get the
// identical headers with no body — how clients size a download
// without paying for it.
func (s *Server) writeArtifact(w http.ResponseWriter, r *http.Request, entry *cache.Entry, name string) {
	body, ok := entry.Artifacts[name]
	if !ok {
		s.writeError(w, cerr.New(cerr.CodeInvalidParams,
			"server: no artifact %q (have %v)", name, entry.ArtifactNames()), http.StatusNotFound)
		return
	}
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

// handleObject serves GET|HEAD /v1/objects/{key} or its report.
func (s *Server) handleObject(report bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := s.backend.Object(w, r, r.PathValue("key"), report); err != nil {
			s.writeError(w, err, 0)
		}
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
	WriteJSON(w, http.StatusAccepted, envelope{Sweep: sw.Status()})
}

// lookupSweep resolves {id}, answering the 404 itself when unknown.
func (s *Server) lookupSweep(w http.ResponseWriter, r *http.Request) (*sweep.Sweep, bool) {
	sw, ok := s.sweeps.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, cerr.New(cerr.CodeInvalidParams, "server: unknown sweep %q", r.PathValue("id")), http.StatusNotFound)
	}
	return sw, ok
}

// handleSweepStatus is GET /v1/sweeps/{id}.
func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	if sw, ok := s.lookupSweep(w, r); ok {
		WriteJSON(w, http.StatusOK, envelope{Sweep: sw.Status()})
	}
}

// handleSweepResults is GET /v1/sweeps/{id}/results. Without query
// parameters it returns the full document exactly as it always has;
// with ?offset= and/or ?limit= it returns one window of rows and puts
// the page metadata (total, next_offset) beside the payload in the
// envelope.
func (s *Server) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookupSweep(w, r)
	if !ok {
		return
	}
	res := sw.Results()
	offset, limit, paged, err := pageParams(r)
	if err != nil {
		s.writeError(w, err, 0)
		return
	}
	if !paged {
		WriteJSON(w, http.StatusOK, envelope{Data: res})
		return
	}
	win, pg := res.Paginate(offset, limit)
	WriteJSON(w, http.StatusOK, envelope{Data: win, Page: &pg})
}

// pageParams parses ?offset=&limit= from a collection request. paged
// is false when neither is present (the full-document default).
func pageParams(r *http.Request) (offset, limit int, paged bool, err error) {
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
	if sw, ok := s.lookupSweep(w, r); ok {
		sweep.ServeEvents(w, r, sw, sweep.DefaultEventHeartbeat)
	}
}

// handleProcesses is GET /v1/processes. Nothing registers decks at
// runtime, so every process of one build answers the same list.
func (s *Server) handleProcesses(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, envelope{Data: map[string]any{"processes": tech.Names()}})
}

// handleTests is GET /v1/tests.
func (s *Server) handleTests(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, envelope{Data: map[string]any{"tests": canon.TestNames()}})
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
		// Resume debt: what a restart right now would owe (in-flight
		// sweeps and points, and how many of those points would be lost
		// outright without a journal).
		"sweeps": s.sweeps.Backlog(),
	}
	status := http.StatusOK
	if state := s.backend.Health(doc); state != "" {
		doc["status"] = state
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, doc)
}

// metricsBody is the /metrics document.
type metricsBody struct {
	Cache   *cache.Stats   `json:"cache,omitempty"`
	Store   *store.Stats   `json:"store,omitempty"`
	Queue   jobs.Stats     `json:"queue"`
	Obs     map[string]any `json:"obs"`
	UptimeS float64        `json:"uptime_s"`
}

// handleMetrics is GET /metrics: dual exposition. The default is the
// obs registry snapshot plus cache, store and queue snapshots in one
// JSON document; ?format=prometheus renders the obs registry as text
// exposition format 0.0.4 for scrapers.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		s.cfg.Metrics.WritePrometheus(w)
		return
	}
	body := metricsBody{
		Queue:   s.cfg.Queue.Stats(),
		Obs:     s.cfg.Metrics.Snapshot(),
		UptimeS: time.Since(s.start).Seconds(),
	}
	if c := s.cfg.Cache; c != nil {
		stats := c.Stats()
		body.Cache = &stats
	}
	if st := s.cfg.Store; st != nil {
		stats := st.Stats()
		body.Store = &stats
	}
	WriteJSON(w, http.StatusOK, body)
}

// handleTrace is GET /v1/debug/traces/{id}: the span set of a job the
// queue holds (finished or in flight), else the backend's. The
// representation is negotiated: ?format=tree|spans|chrome wins when
// present, otherwise an Accept header of text/plain selects the
// indented text tree and anything else the Chrome trace-event JSON
// (load it in chrome://tracing or Perfetto).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" && strings.HasPrefix(r.Header.Get("Accept"), "text/plain") {
		format = "tree"
	}
	id := r.PathValue("id")
	var ss obs.SpanSet
	j, ok := s.cfg.Queue.Job(id)
	if ok {
		ss = j.Trace().SpanSet(s.node)
	} else {
		ss, ok = s.backend.Trace(r.Context(), id)
	}
	if !ok {
		s.writeError(w, cerr.New(cerr.CodeInvalidParams, "server: no trace for job %q", id), http.StatusNotFound)
		return
	}
	var b []byte
	var err error
	switch format {
	case "tree":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, ss.Tree())
		return
	case "spans":
		// The wire span set a gateway fetches to merge this process's
		// slice of a distributed trace into the end-to-end view.
		b, err = ss.JSON()
	default:
		b, err = ss.ChromeJSON()
	}
	if err != nil {
		s.writeError(w, cerr.Wrap(cerr.CodeInternal, err, "server: trace rendering"), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}
