package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/cerr"
	"repro/internal/chaos"
	"repro/internal/cjson"
	"repro/internal/compiler"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sweep"
)

// RouteRetry is the gateway's per-peer exchange policy: two quick
// attempts, then move to the ring successor. Failover is the retry
// mechanism at this layer, so per-peer persistence must be short.
var RouteRetry = sweep.RetryPolicy{
	MaxAttempts:      2,
	BaseDelay:        50 * time.Millisecond,
	MaxDelay:         500 * time.Millisecond,
	BreakerThreshold: 3,
	BreakerCooldown:  3 * time.Second,
}

// GatewayConfig wires a Gateway.
type GatewayConfig struct {
	// Table is the fleet view (ring + health); required.
	Table *Table
	// Queue drives the sweep fan-out: each unique point becomes one
	// router job whose Run proxies the compile to the owning shard.
	// Required.
	Queue *jobs.Queue
	// Client performs peer exchanges; nil installs one with RouteRetry.
	Client *sweep.Client
	// Registry receives the gateway metrics; nil allocates a private
	// one.
	Registry *obs.Registry
	// Chaos, when non-nil, injects scripted faults at the proxy.route
	// point and into the sweep manager's mc.sample statistical-yield
	// estimates.
	Chaos *chaos.Injector
	// SweepMaxPoints caps one sweep's cross product; <= 0 takes the
	// sweep default.
	SweepMaxPoints int
	// JobRouteMemory bounds the job-id -> shard map (FIFO); <= 0 means
	// 4096.
	JobRouteMemory int
	// TraceBudget bounds retained per-job gateway traces for the merged
	// GET /debug/trace/{id} view (FIFO); <= 0 means 512.
	TraceBudget int
	// FleetScrapeTimeout bounds each per-peer exchange of a
	// GET /metrics?scope=fleet scrape; <= 0 means 2s.
	FleetScrapeTimeout time.Duration
	// SSEHeartbeat is the keep-alive cadence of the sweep event stream;
	// <= 0 means sweep.DefaultEventHeartbeat.
	SSEHeartbeat time.Duration
}

// fleetScrapeFanout bounds how many peers one fleet scrape queries
// concurrently.
const fleetScrapeFanout = 8

// Gateway is the federation front door: one HTTP surface that speaks
// the daemon's /v1 contract while fanning the work across a shard
// fleet. Compile submissions and key-addressed reads route to the
// key's ring owner (failing over to successors while a shard is
// down); job reads follow the shard that accepted the job; sweeps run
// on a local manager whose per-point compiles are proxied — so the
// sweep envelope a cluster serves is byte-identical to a single
// daemon's, because rows are computed by the same code from the same
// reports.
type Gateway struct {
	cfg    GatewayConfig
	client *sweep.Client
	sweeps *sweep.Manager
	mux    *http.ServeMux
	start  time.Time

	requests     *obs.CounterVec // proxy_requests_total{peer}
	failures     *obs.CounterVec // proxy_failures_total{peer}
	fallback     *obs.Counter    // proxy_failovers_total
	scrapeErrors *obs.Counter    // fleet_scrape_errors_total
	scrapeDur    *obs.Histogram  // fleet_scrape_duration_seconds

	jobMu    sync.Mutex
	jobPeer  map[string]string
	jobOrder []string
	// jobTrace retains the gateway-side trace of each routed compile
	// (FIFO, TraceBudget) — the base span set of the merged
	// /debug/trace/{id} view.
	jobTrace   map[string]*obs.Trace
	traceOrder []string

	codeByName map[string]cerr.Code
}

// NewGateway builds the gateway and its HTTP surface.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.Table == nil {
		return nil, cerr.New(cerr.CodeInvalidParams, "cluster: gateway needs a member table")
	}
	if cfg.Queue == nil {
		return nil, cerr.New(cerr.CodeInvalidParams, "cluster: gateway needs a router queue")
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.JobRouteMemory <= 0 {
		cfg.JobRouteMemory = 4096
	}
	if cfg.TraceBudget <= 0 {
		cfg.TraceBudget = 512
	}
	if cfg.FleetScrapeTimeout <= 0 {
		cfg.FleetScrapeTimeout = 2 * time.Second
	}
	g := &Gateway{
		cfg:        cfg,
		client:     cfg.Client,
		mux:        http.NewServeMux(),
		start:      time.Now(),
		jobPeer:    map[string]string{},
		jobTrace:   map[string]*obs.Trace{},
		codeByName: map[string]cerr.Code{},
	}
	if g.client == nil {
		g.client = sweep.NewClient("")
		g.client.Retry = RouteRetry
	}
	for _, c := range cerr.Codes() {
		g.codeByName[c.String()] = c
	}
	g.sweeps = sweep.NewManager(sweep.Config{
		Queue: cfg.Queue,
		// The gateway holds no artifacts; its cache is the fleet's. A
		// Lookup asks the key's owning shard for an already-cached
		// report, so cluster sweep rows carry the same cached flags a
		// warm single daemon would, and repeats cost zero recompiles.
		Lookup:    g.lookupFleet,
		Run:       g.runProxiedCompile,
		Registry:  cfg.Registry,
		Chaos:     cfg.Chaos,
		MaxPoints: cfg.SweepMaxPoints,
	})
	g.registerMetrics()
	g.routes()
	return g, nil
}

// Handler returns the gateway's HTTP surface.
func (g *Gateway) Handler() http.Handler { return g.mux }

func (g *Gateway) registerMetrics() {
	r := g.cfg.Registry
	t := g.cfg.Table
	r.GaugeFunc("cluster_ring_version", "Monotonic ring-state version; bumps on every member up/down transition.",
		func() float64 { return float64(t.Version()) })
	r.GaugeFunc("cluster_peers_up", "Ring members currently passing health probes.",
		func() float64 { return float64(t.PeersUp()) })
	r.GaugeFunc("cluster_peers_total", "Ring member count.",
		func() float64 { return float64(t.PeersTotal()) })
	g.requests = r.CounterVec("proxy_requests_total", "Exchanges routed to each peer.", "peer")
	g.failures = r.CounterVec("proxy_failures_total", "Failed exchanges per peer (transport errors, open breakers, injected faults).", "peer")
	g.fallback = r.Counter("proxy_failovers_total", "Requests that fell over to a ring successor after the preferred shard failed.")
	g.scrapeErrors = r.Counter("fleet_scrape_errors_total",
		"Per-peer failures (transport, bad status, unparseable exposition, injected faults) during fleet metric scrapes.")
	g.scrapeDur = r.Histogram("fleet_scrape_duration_seconds",
		"Wall-clock time of one whole GET /metrics?scope=fleet scrape across the fleet.", nil)
	// Pre-seed the per-peer children so the exposition is complete and
	// deterministic from the first scrape.
	for _, m := range t.Ring().Members() {
		g.requests.With(m)
		g.failures.With(m)
	}
}

// routes mounts the /v1 surface. Every /v1 pattern gets an enveloped
// 405 fallback carrying the Allow list.
func (g *Gateway) routes() {
	g.route("POST", "/v1/compile", g.handleCompile)
	g.route("GET", "/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) { g.proxyJob(w, r, "") })
	g.route("GET", "/v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) { g.proxyJob(w, r, "/result") })
	// GET patterns also serve HEAD (Go 1.22 mux), hence the wider
	// Allow lists.
	g.route("GET, HEAD", "/v1/jobs/{id}/artifact/{name}", func(w http.ResponseWriter, r *http.Request) {
		g.proxyJob(w, r, "/artifact/"+r.PathValue("name"))
	})
	g.route("GET, HEAD", "/v1/objects/{key}", g.handleObject)
	g.route("GET", "/v1/objects/{key}/report", g.handleObjectReport)
	g.route("POST", "/v1/sweeps", g.handleSweepCreate)
	g.route("GET", "/v1/sweeps/{id}", g.handleSweepStatus)
	g.route("GET", "/v1/sweeps/{id}/results", g.handleSweepResults)
	g.route("GET", "/v1/sweeps/{id}/events", g.handleSweepEvents)
	g.route("GET", "/v1/processes", func(w http.ResponseWriter, r *http.Request) { g.proxyAny(w, r, "/v1/processes") })
	g.route("GET", "/v1/tests", func(w http.ResponseWriter, r *http.Request) { g.proxyAny(w, r, "/v1/tests") })
	g.route("GET", "/v1/debug/traces/{id}", g.handleTraceV1)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	// Deprecated alias of /v1/debug/traces/{id}.
	g.mux.HandleFunc("GET /debug/trace/{id}", g.handleTrace)
}

// route registers handler for the allowed methods plus a bare-pattern
// fallback answering every other method with an enveloped 405 and the
// Allow list. allow is comma-separated ("GET, HEAD"); the first token
// is the pattern's mux method.
func (g *Gateway) route(allow, pattern string, h http.HandlerFunc) {
	first, _, _ := strings.Cut(allow, ",")
	g.mux.HandleFunc(first+" "+pattern, h)
	g.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		g.writeError(w, cerr.New(cerr.CodeBadRequest,
			"cluster: method %s not allowed on %s", r.Method, pattern),
			http.StatusMethodNotAllowed)
	})
}

// envelope mirrors the daemon's uniform /v1 response document, so
// gateway-authored responses are shape-identical to shard-authored
// ones.
type gwEnvelope struct {
	Job   any          `json:"job,omitempty"`
	Sweep any          `json:"sweep,omitempty"`
	Data  any          `json:"data,omitempty"`
	Page  *sweep.Page  `json:"page,omitempty"`
	Error *gwWireError `json:"error"`
}

type gwWireError struct {
	Code    string `json:"code"`
	Stage   string `json:"stage,omitempty"`
	Message string `json:"message"`
}

// writeJSON renders v as canonical JSON. A value that cannot be
// encoded (a non-finite float) is answered with a JSON 500 envelope.
func (g *Gateway) writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := cjson.MarshalIndent(v)
	if err != nil {
		status = http.StatusInternalServerError
		b = []byte(`{"error":{"code":"ERR_INTERNAL","message":"response encoding failed"}}` + "\n")
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	w.Write(b)
}

func (g *Gateway) writeError(w http.ResponseWriter, err error, statusOverride int) {
	status := statusOverride
	if status == 0 {
		status = server.HTTPStatus(err)
	}
	g.writeJSON(w, status, gwEnvelope{Error: &gwWireError{
		Code:    cerr.CodeOf(err).String(),
		Stage:   cerr.StageOf(err),
		Message: err.Error(),
	}})
}

// relay writes a shard's verbatim response to the client, preserving
// the contract-bearing headers — including Retry-After on shed load
// and every X-* diagnostic header, so a 429/5xx proxied through the
// gateway keeps the shard's backoff hint and forensics intact.
func relay(w http.ResponseWriter, resp *sweep.RawResponse) {
	for _, h := range []string{"Content-Type", "Retry-After", "Content-Disposition"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	for k, vs := range resp.Header {
		if !strings.HasPrefix(http.CanonicalHeaderKey(k), "X-") {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	// HEAD responses carry their length in the header, not the body.
	if cl := resp.Header.Get("Content-Length"); cl != "" && len(resp.Body) == 0 {
		w.Header().Set("Content-Length", cl)
	} else {
		w.Header().Set("Content-Length", strconv.Itoa(len(resp.Body)))
	}
	w.WriteHeader(resp.Status)
	w.Write(resp.Body)
}

// exchange routes method+path(+body) to the key's owning shard,
// failing over through ring successors: a transport-level failure (or
// injected route fault) marks the peer down and moves on; any HTTP
// response is a terminal answer. accept, when non-nil, can veto a
// response (e.g. a 404 during key-addressed reads) to keep searching.
func (g *Gateway) exchange(ctx context.Context, key, method, path string, body []byte,
	accept func(status int) bool) (*sweep.RawResponse, string, error) {
	candidates := g.cfg.Table.Route(key)
	if len(candidates) == 0 {
		// Whole fleet marked down: the table may be stale (mass restart),
		// so try everyone in ring order rather than failing outright.
		candidates = g.cfg.Table.Ring().Successors(key, 0)
	}
	var lastErr error
	var lastResp *sweep.RawResponse
	failed := false
	for _, peer := range candidates {
		if failed {
			// Only count re-routes forced by a failed peer — a healthy
			// shard answering "not resident" (accept veto) is a miss,
			// not a failover.
			g.fallback.Inc()
			failed = false
		}
		// The span-derived context flows into DoRaw so the injected
		// traceparent names proxy.route as the remote parent — the span
		// shard-side compile stages nest under after the trace merge.
		rctx, end := obs.Start(ctx, "proxy.route")
		g.cfg.Chaos.Delay(chaos.PointProxyRoute)
		if err := g.cfg.Chaos.Fail(chaos.PointProxyRoute); err != nil {
			g.failures.With(peer).Inc()
			end(obs.String("peer", peer), obs.String("outcome", "chaos"))
			lastErr = err
			failed = true
			continue
		}
		g.requests.With(peer).Inc()
		resp, err := g.client.DoRaw(rctx, method, peer+path, body)
		if err != nil {
			g.failures.With(peer).Inc()
			g.cfg.Table.MarkDown(peer)
			end(obs.String("peer", peer), obs.String("outcome", "error"))
			lastErr = err
			failed = true
			if ctx.Err() != nil {
				break
			}
			continue
		}
		end(obs.String("peer", peer), obs.String("outcome", fmt.Sprintf("%d", resp.Status)))
		if accept != nil && !accept(resp.Status) {
			lastResp = resp
			continue
		}
		return resp, peer, nil
	}
	if lastResp != nil {
		// Every shard answered but none acceptably (e.g. nobody has the
		// object): the last real answer beats a synthetic error.
		return lastResp, "", nil
	}
	if lastErr == nil {
		lastErr = cerr.New(cerr.CodeOverloaded, "cluster: no shard reachable for key %s", key)
	}
	return nil, "", lastErr
}

// rememberJob binds a shard-issued job id to its shard (bounded FIFO)
// so job status/result/artifact reads route straight there.
func (g *Gateway) rememberJob(id, peer string) {
	if id == "" || peer == "" {
		return
	}
	g.jobMu.Lock()
	defer g.jobMu.Unlock()
	if _, seen := g.jobPeer[id]; !seen {
		g.jobOrder = append(g.jobOrder, id)
		for len(g.jobOrder) > g.cfg.JobRouteMemory {
			delete(g.jobPeer, g.jobOrder[0])
			g.jobOrder = g.jobOrder[1:]
		}
	}
	g.jobPeer[id] = peer
}

func (g *Gateway) peerForJob(id string) (string, bool) {
	g.jobMu.Lock()
	defer g.jobMu.Unlock()
	p, ok := g.jobPeer[id]
	return p, ok
}

// rememberTrace retains the gateway-side trace of a routed compile
// (bounded FIFO, like the daemon's trace budget).
func (g *Gateway) rememberTrace(id string, tr *obs.Trace) {
	if id == "" || tr == nil {
		return
	}
	g.jobMu.Lock()
	defer g.jobMu.Unlock()
	if _, seen := g.jobTrace[id]; !seen {
		g.traceOrder = append(g.traceOrder, id)
		for len(g.traceOrder) > g.cfg.TraceBudget {
			delete(g.jobTrace, g.traceOrder[0])
			g.traceOrder = g.traceOrder[1:]
		}
	}
	g.jobTrace[id] = tr
}

// traceForJob resolves a retained gateway trace by job id.
func (g *Gateway) traceForJob(id string) (*obs.Trace, bool) {
	g.jobMu.Lock()
	defer g.jobMu.Unlock()
	tr, ok := g.jobTrace[id]
	return tr, ok
}

// upMembers lists the routable fleet: up members in ring-member order,
// or everyone when the table says nobody is (stale-table fallback).
func (g *Gateway) upMembers() []string {
	all := g.cfg.Table.Ring().Members()
	up := make([]string, 0, len(all))
	for _, m := range all {
		if g.cfg.Table.Up(m) {
			up = append(up, m)
		}
	}
	if len(up) == 0 {
		return all
	}
	return up
}

// handleCompile is POST /v1/compile: canonicalize exactly as a shard
// would (same strict parse, same key), then forward the body verbatim
// to the key's owner.
func (g *Gateway) handleCompile(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.MaxRequestBody))
	if err != nil {
		g.writeError(w, cerr.Wrap(cerr.CodeInvalidParams, err, "cluster: request body"), http.StatusRequestEntityTooLarge)
		return
	}
	req, err := canon.ParseRequest(body)
	if err != nil {
		g.writeError(w, err, 0)
		return
	}
	params, err := req.Params()
	if err != nil {
		g.writeError(w, err, 0)
		return
	}
	key, err := canon.KeyOfParams(params)
	if err != nil {
		g.writeError(w, err, 0)
		return
	}
	path := "/v1/compile"
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	// Every routed compile records a gateway trace: the proxy.route
	// spans land here, the wire identity travels to the shard, and
	// GET /debug/trace/{job_id} merges both sides back together.
	tr := obs.NewTrace("")
	ctx := obs.WithTrace(r.Context(), tr)
	resp, peer, err := g.exchange(ctx, key, http.MethodPost, path, body, nil)
	if err != nil {
		g.writeError(w, err, 0)
		return
	}
	if id := jobIDOf(resp.Body); id != "" {
		g.rememberJob(id, peer)
		g.rememberTrace(id, tr)
	}
	relay(w, resp)
}

// jobIDOf extracts job.job_id from a compile response envelope, "" if
// absent.
func jobIDOf(body []byte) string {
	var env struct {
		Job struct {
			JobID string `json:"job_id"`
		} `json:"job"`
	}
	if json.Unmarshal(body, &env) != nil {
		return ""
	}
	return env.Job.JobID
}

// proxyJob is GET /v1/jobs/{id}[suffix]: follow the shard that issued
// the job when known, otherwise sweep the up fleet — the first answer
// that isn't "unknown job" wins.
func (g *Gateway) proxyJob(w http.ResponseWriter, r *http.Request, suffix string) {
	id := r.PathValue("id")
	path := "/v1/jobs/" + id + suffix
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	if peer, ok := g.peerForJob(id); ok {
		g.requests.With(peer).Inc()
		if resp, err := g.client.DoRaw(r.Context(), r.Method, peer+path, nil); err == nil {
			relay(w, resp)
			return
		}
		g.failures.With(peer).Inc()
		g.cfg.Table.MarkDown(peer)
	}
	var notFound *sweep.RawResponse
	for _, peer := range g.upMembers() {
		g.requests.With(peer).Inc()
		resp, err := g.client.DoRaw(r.Context(), r.Method, peer+path, nil)
		if err != nil {
			g.failures.With(peer).Inc()
			g.cfg.Table.MarkDown(peer)
			continue
		}
		if resp.Status != http.StatusNotFound {
			g.rememberJob(id, peer)
			relay(w, resp)
			return
		}
		notFound = resp
	}
	if notFound != nil {
		relay(w, notFound)
		return
	}
	g.writeError(w, cerr.New(cerr.CodeInvalidParams, "cluster: unknown job %q", id), http.StatusNotFound)
}

// handleObject is GET/HEAD /v1/objects/{key}: a key-addressed read
// routed by the ring. A shard that doesn't hold the object (404) is
// not final — after failover a key's artifact may live on a
// successor, so the search continues through the candidates.
func (g *Gateway) handleObject(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	resp, _, err := g.exchange(r.Context(), key, r.Method, "/v1/objects/"+key, nil,
		func(status int) bool { return status != http.StatusNotFound })
	if err != nil {
		g.writeError(w, err, 0)
		return
	}
	relay(w, resp)
}

// handleObjectReport is GET /v1/objects/{key}/report: the cached
// compile report for a content key, never triggering a compile. Like
// handleObject, a 404 keeps searching ring successors — after
// failover the report may be resident on a non-owner.
func (g *Gateway) handleObjectReport(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	resp, _, err := g.exchange(r.Context(), key, http.MethodGet, "/v1/objects/"+key+"/report", nil,
		func(status int) bool { return status != http.StatusNotFound })
	if err != nil {
		g.writeError(w, err, 0)
		return
	}
	relay(w, resp)
}

// proxyAny serves fleet-invariant catalogs (/v1/processes, /v1/tests)
// from the first up shard that answers.
func (g *Gateway) proxyAny(w http.ResponseWriter, r *http.Request, path string) {
	var lastErr error
	for _, peer := range g.upMembers() {
		g.requests.With(peer).Inc()
		resp, err := g.client.DoRaw(r.Context(), http.MethodGet, peer+path, nil)
		if err != nil {
			g.failures.With(peer).Inc()
			g.cfg.Table.MarkDown(peer)
			lastErr = err
			continue
		}
		relay(w, resp)
		return
	}
	if lastErr == nil {
		lastErr = cerr.New(cerr.CodeOverloaded, "cluster: no shard reachable")
	}
	g.writeError(w, lastErr, 0)
}

// handleSweepCreate is POST /v1/sweeps: the sweep runs on the
// gateway's own manager; each unique point's compile is proxied to
// its owning shard by runProxiedCompile. Row computation is
// deterministic from the report metrics, so the merged results
// envelope is byte-identical to a single daemon's.
func (g *Gateway) handleSweepCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.MaxRequestBody))
	if err != nil {
		g.writeError(w, cerr.Wrap(cerr.CodeBadRequest, err, "cluster: sweep body"), http.StatusRequestEntityTooLarge)
		return
	}
	spec, err := sweep.ParseSpec(body)
	if err != nil {
		g.writeError(w, err, 0)
		return
	}
	sw, err := g.sweeps.Create(spec)
	if err != nil {
		g.writeError(w, err, 0)
		return
	}
	g.writeJSON(w, http.StatusAccepted, gwEnvelope{Sweep: sw.Status()})
}

func (g *Gateway) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	sw, ok := g.sweeps.Get(r.PathValue("id"))
	if !ok {
		g.writeError(w, cerr.New(cerr.CodeInvalidParams, "cluster: unknown sweep %q", r.PathValue("id")), http.StatusNotFound)
		return
	}
	g.writeJSON(w, http.StatusOK, gwEnvelope{Sweep: sw.Status()})
}

// handleSweepResults is GET /v1/sweeps/{id}/results, with the same
// ?offset=&limit= window semantics as a shard: no parameters means
// the full document, a window adds the page metadata to the envelope.
func (g *Gateway) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	sw, ok := g.sweeps.Get(r.PathValue("id"))
	if !ok {
		g.writeError(w, cerr.New(cerr.CodeInvalidParams, "cluster: unknown sweep %q", r.PathValue("id")), http.StatusNotFound)
		return
	}
	res := sw.Results()
	offset, limit, paged, err := server.PageParams(r)
	if err != nil {
		g.writeError(w, err, 0)
		return
	}
	if !paged {
		g.writeJSON(w, http.StatusOK, gwEnvelope{Data: res})
		return
	}
	win, pg := res.Paginate(offset, limit)
	g.writeJSON(w, http.StatusOK, gwEnvelope{Data: win, Page: &pg})
}

// handleSweepEvents is GET /v1/sweeps/{id}/events: the cluster
// sweep's live SSE progress stream — same wire format as a shard's,
// because both serve the shared sweep feed.
func (g *Gateway) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	sw, ok := g.sweeps.Get(r.PathValue("id"))
	if !ok {
		g.writeError(w, cerr.New(cerr.CodeInvalidParams, "cluster: unknown sweep %q", r.PathValue("id")), http.StatusNotFound)
		return
	}
	sweep.ServeEvents(w, r, sw, g.cfg.SSEHeartbeat)
}

// lookupFleet is the gateway sweep manager's Lookup seam: ask the
// key's owning shard (then ring successors) for an already-cached
// report. A hit makes the point a cached row, exactly as a warm
// single daemon's Lookup would; any miss or failure just means the
// point routes a compile.
func (g *Gateway) lookupFleet(key string) (*cache.Entry, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, _, err := g.exchange(ctx, key, http.MethodGet, "/v1/objects/"+key+"/report", nil,
		func(status int) bool { return status == http.StatusOK })
	if err != nil || resp.Status != http.StatusOK {
		return nil, false
	}
	var env struct {
		Data struct {
			Key      string          `json:"key"`
			Degraded bool            `json:"degraded"`
			Report   json.RawMessage `json:"report"`
		} `json:"data"`
	}
	if json.Unmarshal(resp.Body, &env) != nil || env.Data.Key != key || len(env.Data.Report) == 0 {
		return nil, false
	}
	return &cache.Entry{Key: key, Report: env.Data.Report, Degraded: env.Data.Degraded}, true
}

// errPeerLost marks a proxied compile that was accepted by a shard
// which then became unreachable — the one error class worth a full
// re-route (the work is idempotent; a successor recompiles or serves
// its cache).
var errPeerLost = cerr.New(cerr.CodeInternal, "cluster: shard lost after accepting the job")

// runProxiedCompile is the gateway sweep manager's Run seam: POST the
// point's normalized wire request to the owning shard and build the
// entry from the response. One full re-route is allowed when a shard
// dies between accepting and finishing a compile.
func (g *Gateway) runProxiedCompile(ctx context.Context, key string, req canon.Request, _ compiler.Params) (*cache.Entry, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, cerr.Wrap(cerr.CodeInternal, err, "cluster: encoding request for %s", key)
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		resp, peer, xerr := g.exchange(ctx, key, http.MethodPost, "/v1/compile", body, nil)
		if xerr != nil {
			return nil, xerr
		}
		entry, eerr := g.entryFromCompileResponse(ctx, peer, key, resp)
		if eerr == errPeerLost && ctx.Err() == nil {
			lastErr = eerr
			continue // the dead peer is marked down; re-route to a successor
		}
		return entry, eerr
	}
	return nil, lastErr
}

// shardJob is the slice of a shard's compile/job envelope the gateway
// consumes.
type shardJob struct {
	Key      string          `json:"key"`
	JobID    string          `json:"job_id"`
	State    string          `json:"state"`
	Degraded bool            `json:"degraded"`
	Report   json.RawMessage `json:"report"`
}

// entryFromCompileResponse turns a shard's compile response into a
// cache entry: a synchronous 200 carries the report inline; a 202 job
// handle (the shard's sync-wait expired) is polled to completion.
func (g *Gateway) entryFromCompileResponse(ctx context.Context, peer, key string, resp *sweep.RawResponse) (*cache.Entry, error) {
	var env struct {
		Job   shardJob     `json:"job"`
		Error *gwWireError `json:"error"`
	}
	if err := json.Unmarshal(resp.Body, &env); err != nil {
		return nil, cerr.Wrap(cerr.CodeInternal, err, "cluster: shard %s returned non-envelope JSON (status %d)", peer, resp.Status)
	}
	if env.Error != nil {
		return nil, g.wireToErr(env.Error)
	}
	if resp.Status == http.StatusAccepted || len(env.Job.Report) == 0 {
		return g.pollJobResult(ctx, peer, env.Job.JobID, key)
	}
	if env.Job.Key != key {
		return nil, cerr.New(cerr.CodeInternal, "cluster: shard %s answered key %s for %s", peer, env.Job.Key, key)
	}
	return &cache.Entry{Key: key, Report: env.Job.Report, Degraded: env.Job.Degraded}, nil
}

// wireToErr rebuilds a shard's typed error locally, preserving the
// code (so sweep point error codes match a single daemon's) and the
// stage.
func (g *Gateway) wireToErr(we *gwWireError) error {
	code, ok := g.codeByName[we.Code]
	if !ok {
		code = cerr.CodeInternal
	}
	err := error(cerr.New(code, "%s", we.Message))
	if we.Stage != "" {
		err = cerr.WithStage(we.Stage, err)
	}
	return err
}

// pollJobResult follows a 202 job handle on the issuing shard until
// the job finishes. A transport failure here reports errPeerLost so
// the caller can re-route the whole compile.
func (g *Gateway) pollJobResult(ctx context.Context, peer, jobID, key string) (*cache.Entry, error) {
	if jobID == "" {
		return nil, cerr.New(cerr.CodeInternal, "cluster: shard %s answered without report or job id", peer)
	}
	path := peer + "/v1/jobs/" + jobID + "/result"
	for {
		resp, err := g.client.DoRaw(ctx, http.MethodGet, path, nil)
		if err != nil {
			g.cfg.Table.MarkDown(peer)
			if ctx.Err() != nil {
				return nil, cerr.Wrap(cerr.CodeBudgetExceeded, ctx.Err(), "cluster: waiting on %s", jobID)
			}
			return nil, errPeerLost
		}
		if resp.Status == http.StatusAccepted {
			select {
			case <-ctx.Done():
				return nil, cerr.Wrap(cerr.CodeBudgetExceeded, ctx.Err(), "cluster: waiting on %s", jobID)
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		var env struct {
			Data  json.RawMessage `json:"data"`
			Error *gwWireError    `json:"error"`
		}
		if err := json.Unmarshal(resp.Body, &env); err != nil {
			return nil, cerr.Wrap(cerr.CodeInternal, err, "cluster: job result from %s", peer)
		}
		if env.Error != nil {
			return nil, g.wireToErr(env.Error)
		}
		if len(env.Data) == 0 {
			return nil, cerr.New(cerr.CodeInternal, "cluster: empty job result from %s", peer)
		}
		return &cache.Entry{Key: key, Report: env.Data}, nil
	}
}

// handleHealthz reports the gateway's own state plus the fleet view:
// per-peer up/down, the ring version, and role identification for
// operators telling gateways from shards.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	t := g.cfg.Table
	peers := map[string]string{}
	for _, m := range t.Ring().Members() {
		state := "up"
		if !t.Up(m) {
			state = "down"
		}
		peers[m] = state
	}
	status := http.StatusOK
	state := "ok"
	if t.PeersUp() == 0 {
		// A gateway with no reachable shard cannot serve compiles.
		status = http.StatusServiceUnavailable
		state = "degraded"
	}
	g.writeJSON(w, status, map[string]any{
		"status":       state,
		"role":         "gateway",
		"uptime_s":     time.Since(g.start).Seconds(),
		"ring_version": t.Version(),
		"peers_up":     t.PeersUp(),
		"peers_total":  t.PeersTotal(),
		"peers":        peers,
		// Resume debt of the gateway's own sweep manager (cluster sweeps
		// run here, not on the shards).
		"sweeps": g.sweeps.Backlog(),
	})
}

// handleMetrics mirrors the daemon's dual exposition: JSON snapshot by
// default, Prometheus text 0.0.4 with ?format=prometheus. With
// ?scope=fleet the gateway scrapes every ring member concurrently and
// re-emits one merged document instead (see handleFleetMetrics).
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("scope") == "fleet" {
		g.handleFleetMetrics(w, r)
		return
	}
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		g.cfg.Registry.WritePrometheus(w)
		return
	}
	g.writeJSON(w, http.StatusOK, map[string]any{
		"obs":      g.cfg.Registry.Snapshot(),
		"queue":    g.cfg.Queue.Stats(),
		"uptime_s": time.Since(g.start).Seconds(),
	})
}

// scrapeFleet fetches every ring member's Prometheus exposition with
// bounded fan-out and a per-peer timeout. A peer that fails —
// transport error, bad status, unparseable text, injected fault — is
// skipped (stale-peer tolerance) and counted in
// fleet_scrape_errors_total; the merge proceeds with the rest.
func (g *Gateway) scrapeFleet(ctx context.Context) (scrapes []obs.FleetScrape, errs int) {
	members := g.cfg.Table.Ring().Members()
	results := make([]*obs.FleetScrape, len(members))
	sem := make(chan struct{}, fleetScrapeFanout)
	var wg sync.WaitGroup
	var errCount atomic.Int64
	for i, m := range members {
		wg.Add(1)
		go func(i int, m string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			g.cfg.Chaos.Delay(chaos.PointFleetScrape)
			if err := g.cfg.Chaos.Fail(chaos.PointFleetScrape); err != nil {
				errCount.Add(1)
				return
			}
			pctx, cancel := context.WithTimeout(ctx, g.cfg.FleetScrapeTimeout)
			defer cancel()
			resp, err := g.client.DoRaw(pctx, http.MethodGet, m+"/metrics?format=prometheus", nil)
			if err != nil || resp.Status != http.StatusOK {
				errCount.Add(1)
				return
			}
			fams, perr := obs.ParsePrometheus(bytes.NewReader(resp.Body))
			if perr != nil {
				errCount.Add(1)
				return
			}
			results[i] = &obs.FleetScrape{Node: m, Families: fams}
		}(i, m)
	}
	wg.Wait()
	for _, res := range results {
		if res != nil {
			scrapes = append(scrapes, *res)
		}
	}
	n := int(errCount.Load())
	g.scrapeErrors.Add(uint64(n))
	return scrapes, n
}

// handleFleetMetrics is GET /metrics?scope=fleet: one merged metric
// document for the whole fleet — counters summed, histogram buckets
// summed, gauges labelled per node — as expvar-style JSON by default
// or Prometheus text with ?format=prometheus.
func (g *Gateway) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	scrapes, errs := g.scrapeFleet(r.Context())
	merged := obs.MergeFleet(scrapes)
	g.scrapeDur.ObserveDuration(time.Since(t0))
	nodes := make([]string, 0, len(scrapes))
	for _, sc := range scrapes {
		nodes = append(nodes, sc.Node)
	}
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		merged.WritePrometheus(w)
		return
	}
	g.writeJSON(w, http.StatusOK, map[string]any{
		"scope":         "fleet",
		"nodes":         nodes,
		"scrape_errors": errs,
		"obs":           merged.Snapshot(),
		"uptime_s":      time.Since(g.start).Seconds(),
	})
}

// handleTrace is GET /debug/trace/{id}, the deprecated pre-/v1 alias
// of /v1/debug/traces/{id}: the end-to-end view of a routed compile.
// The gateway's own span set is the base; the issuing shard's set is
// fetched and spliced under the proxy.route span that injected the
// wire identity. A failed remote fetch (or an injected trace.fetch
// fault) degrades to the gateway-local spans rather than erroring: a
// partial trace still answers "where did the time go" questions.
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	g.renderTrace(w, r, r.URL.Query().Get("format"))
}

// handleTraceV1 is GET /v1/debug/traces/{id}, negotiated like the
// shard route: ?format=tree|spans|chrome wins, otherwise Accept:
// text/plain selects the tree and anything else the Chrome JSON.
func (g *Gateway) handleTraceV1(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" && strings.HasPrefix(r.Header.Get("Accept"), "text/plain") {
		format = "tree"
	}
	g.renderTrace(w, r, format)
}

func (g *Gateway) renderTrace(w http.ResponseWriter, r *http.Request, format string) {
	id := r.PathValue("id")
	tr, ok := g.traceForJob(id)
	if !ok {
		g.writeError(w, cerr.New(cerr.CodeInvalidParams, "cluster: no trace for job %q", id), http.StatusNotFound)
		return
	}
	sets := []obs.SpanSet{tr.SpanSet("gateway")}
	if remote, ok := g.fetchRemoteSpans(r.Context(), id); ok {
		sets = append(sets, remote)
	}
	merged := obs.MergeSpanSets(sets)
	switch format {
	case "tree":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, merged.Tree())
		return
	case "spans":
		b, err := merged.SpanSet().JSON()
		if err != nil {
			g.writeError(w, cerr.Wrap(cerr.CodeInternal, err, "cluster: span set rendering"), 0)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write(b)
		return
	}
	b, err := merged.ChromeJSON()
	if err != nil {
		g.writeError(w, cerr.Wrap(cerr.CodeInternal, err, "cluster: trace rendering"), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// fetchRemoteSpans retrieves the shard-side span set of a routed job:
// the issuing shard when remembered, otherwise the first up member
// that recognises the job id.
func (g *Gateway) fetchRemoteSpans(ctx context.Context, id string) (obs.SpanSet, bool) {
	g.cfg.Chaos.Delay(chaos.PointTraceFetch)
	if err := g.cfg.Chaos.Fail(chaos.PointTraceFetch); err != nil {
		return obs.SpanSet{}, false
	}
	peers := g.upMembers()
	if peer, ok := g.peerForJob(id); ok {
		peers = append([]string{peer}, peers...)
	}
	seen := map[string]bool{}
	for _, peer := range peers {
		if seen[peer] {
			continue
		}
		seen[peer] = true
		// Prefer the /v1 route; shards predating it answer 404 there,
		// so fall back to the deprecated alias for mixed-version fleets.
		resp, err := g.client.DoRaw(ctx, http.MethodGet, peer+"/v1/debug/traces/"+id+"?format=spans", nil)
		if err == nil && resp.Status == http.StatusNotFound {
			resp, err = g.client.DoRaw(ctx, http.MethodGet, peer+"/debug/trace/"+id+"?format=spans", nil)
		}
		if err != nil || resp.Status != http.StatusOK {
			continue
		}
		ss, perr := obs.ParseSpanSet(resp.Body)
		if perr != nil {
			continue
		}
		if ss.Node == "" {
			ss.Node = peer
		}
		return ss, true
	}
	return obs.SpanSet{}, false
}
