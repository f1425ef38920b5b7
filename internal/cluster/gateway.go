package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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
	"repro/internal/compiler"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sweep"
)

// GatewayConfig wires a Gateway.
type GatewayConfig struct {
	// Table is the fleet view (ring + health); required.
	Table *Table
	// Queue drives the sweep fan-out: each unique point becomes one
	// router job whose Run proxies the compile to the owning shard.
	// Required.
	Queue *jobs.Queue
	// Registry receives the gateway metrics; nil allocates a private
	// one.
	Registry *obs.Registry
	// Chaos, when non-nil, injects scripted faults at the proxy.route,
	// trace.fetch and fleet.scrape points and into the sweep manager's
	// mc.sample statistical-yield estimates.
	Chaos *chaos.Injector
}

// fleetScrapeFanout bounds how many peers one fleet scrape queries
// concurrently, and fleetScrapeTimeout bounds each per-peer exchange.
// gatewayNode names the gateway in span sets.
const (
	fleetScrapeFanout  = 8
	fleetScrapeTimeout = 2 * time.Second
	gatewayNode        = "gateway"
)

// Gateway is the federation front door: the daemon's own /v1 surface
// (server.New) over a fleet backend. Compile submissions and
// key-addressed reads route to the key's ring owner (failing over to
// successors while a shard is down); job reads follow the shard that
// accepted the job; sweeps run on the server's manager with per-point
// compiles proxied by route jobs on the gateway's own queue, which
// answers their job and trace reads as a daemon's queue does — so the
// sweep envelope a cluster serves is byte-identical to a single
// daemon's, because rows are computed by the same code from the same
// reports.
type Gateway struct {
	cfg   GatewayConfig
	srv   *server.Server
	fleet *fleet
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
	f := &fleet{
		table:  cfg.Table,
		chaos:  cfg.Chaos,
		client: &sweep.Client{Retry: PeerRetry},
		start:  time.Now(),
	}
	f.registerMetrics(cfg.Registry)
	srv := server.New(server.Config{
		Backend: f,
		Cluster: View{SelfURL: gatewayNode, Table: cfg.Table},
		Queue:   cfg.Queue,
		Metrics: cfg.Registry,
		Chaos:   cfg.Chaos,
	})
	return &Gateway{cfg: cfg, srv: srv, fleet: f}, nil
}

// Handler returns the gateway's HTTP surface: the server's, plus
// GET /metrics?scope=fleet, one merged scrape of every shard.
func (g *Gateway) Handler() http.Handler {
	h := g.srv.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/metrics" && r.URL.Query().Get("scope") == "fleet" {
			g.fleetMetrics(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// fleet is the gateway's server.Backend: ring routing with failover,
// verbatim relay of shard answers, a memory of the shard behind each
// relayed job, proxied sweep compiles and cross-process trace merging.
// The member table is its only memory of dead shards: a transport
// failure marks the shard down, and no path dials a shard the table
// marks down while another is up.
type fleet struct {
	table  *Table
	chaos  *chaos.Injector
	client *sweep.Client
	// jobs remembers, per relayed shard job id, the shard that issued
	// it and the gateway side of its trace.
	jobs  jobTable
	start time.Time

	requests     *obs.CounterVec // proxy_requests_total{peer}
	failures     *obs.CounterVec // proxy_failures_total{peer}
	fallback     *obs.Counter    // proxy_failovers_total
	scrapeErrors *obs.Counter    // fleet_scrape_errors_total
	scrapeDur    *obs.Histogram  // fleet_scrape_duration_seconds
}

// route is the gateway's record of one job: the issuing shard, and the
// gateway-side trace of the compile that created it (nil for a job
// found by searching the fleet).
type route struct {
	peer  string
	trace *obs.Trace
}

// jobTable is a bounded FIFO of routes by job id: it holds at most
// jobs.KeepFinished, the oldest evicted first, and an id already held
// keeps its place. Safe for concurrent use; the zero value is empty.
type jobTable struct {
	mu   sync.Mutex
	byID map[string]route
	ids  [jobs.KeepFinished]string // a ring, in insertion order
	n    int                       // ids ever inserted
}

func (t *jobTable) put(id string, rec route) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byID == nil {
		t.byID = map[string]route{}
	}
	if _, held := t.byID[id]; !held {
		slot := &t.ids[t.n%len(t.ids)]
		delete(t.byID, *slot) // the oldest id, once the ring is full
		*slot = id
		t.n++
	}
	t.byID[id] = rec
}

func (t *jobTable) get(id string) (route, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.byID[id]
	return rec, ok
}

func (f *fleet) registerMetrics(r *obs.Registry) {
	f.requests = r.CounterVec("proxy_requests_total", "Exchanges routed to each peer.", "peer")
	f.failures = r.CounterVec("proxy_failures_total", "Failed exchanges per peer (transport errors, injected faults).", "peer")
	f.fallback = r.Counter("proxy_failovers_total", "Requests that fell over to a ring successor after the preferred shard failed.")
	f.scrapeErrors = r.Counter("fleet_scrape_errors_total",
		"Members a fleet metric scrape got no exposition from (marked down, transport failure, bad status, unparseable text, injected fault).")
	f.scrapeDur = r.Histogram("fleet_scrape_duration_seconds",
		"Wall-clock time of one whole GET /metrics?scope=fleet scrape across the fleet.", nil)
	// Pre-seed the per-peer children so the exposition is complete and
	// deterministic from the first scrape.
	for _, m := range f.table.Ring().Members() {
		f.requests.With(m)
		f.failures.With(m)
	}
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
// When no shard answers at all the fleet sheds the request with
// ERR_OVERLOADED, which the server answers 429 + Retry-After.
func (f *fleet) exchange(ctx context.Context, key, method, path string, body []byte,
	accept func(status int) bool) (*sweep.RawResponse, string, error) {
	candidates := f.table.Route(key)
	if len(candidates) == 0 {
		// Whole fleet marked down: the table may be stale (mass restart),
		// so try everyone in ring order rather than failing outright.
		candidates = f.table.Ring().Successors(key, 0)
	}
	var lastErr error
	var lastResp *sweep.RawResponse
	failed := false
	for _, peer := range candidates {
		if failed {
			// Only count re-routes forced by a failed peer — a healthy
			// shard answering "not resident" (accept veto) is a miss,
			// not a failover.
			f.fallback.Inc()
			failed = false
		}
		// The span-derived context flows into DoRaw so the injected
		// traceparent names proxy.route as the remote parent — the span
		// shard-side compile stages nest under after the trace merge.
		rctx, end := obs.Start(ctx, "proxy.route")
		f.chaos.Delay(chaos.PointProxyRoute)
		if err := f.chaos.Fail(chaos.PointProxyRoute); err != nil {
			f.failures.With(peer).Inc()
			end(obs.String("peer", peer), obs.String("outcome", "chaos"))
			lastErr = err
			failed = true
			continue
		}
		resp, err := f.send(rctx, peer, method, path, body)
		if err != nil {
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
	return nil, "", cerr.New(cerr.CodeOverloaded, "cluster: no shard answered for key %s (last failure: %v)", key, lastErr)
}

// upMembers lists the routable fleet: up members in ring-member order,
// or everyone when the table says nobody is (stale-table fallback).
func (f *fleet) upMembers() []string {
	all := f.table.Ring().Members()
	up := make([]string, 0, len(all))
	for _, m := range all {
		if f.table.Up(m) {
			up = append(up, m)
		}
	}
	if len(up) == 0 {
		return all
	}
	return up
}

// findJob sends a bodiless method+path to the shard remembered for job
// id, whose answer is final; when none is remembered, or it is down or
// cannot be reached, it asks each up shard in turn until one answers
// with a status found accepts, and remembers that shard. It returns the
// accepted answer, else the last one received, with the shard that
// gave it; nil when no shard answered.
func (f *fleet) findJob(ctx context.Context, id, method, path string, found func(status int) bool) (*sweep.RawResponse, string) {
	rec, remembered := f.jobs.get(id)
	if remembered && f.table.Up(rec.peer) {
		if resp, err := f.send(ctx, rec.peer, method, path, nil); err == nil {
			return resp, rec.peer
		}
	}
	var last *sweep.RawResponse
	var lastPeer string
	for _, peer := range f.upMembers() {
		resp, err := f.send(ctx, peer, method, path, nil)
		if err != nil {
			continue
		}
		if found(resp.Status) {
			f.jobs.put(id, route{peer: peer, trace: rec.trace})
			return resp, peer
		}
		last, lastPeer = resp, peer
	}
	return last, lastPeer
}

// send is one exchange with peer, counted per peer; a transport
// failure marks the peer down.
func (f *fleet) send(ctx context.Context, peer, method, path string, body []byte) (*sweep.RawResponse, error) {
	f.requests.With(peer).Inc()
	resp, err := f.client.DoRaw(ctx, method, peer+path, body)
	if err != nil {
		f.failures.With(peer).Inc()
		f.table.MarkDown(peer)
	}
	return resp, err
}

// Compile forwards the body verbatim to the key's owner (the server
// already parsed and keyed it exactly as a shard will) and relays the
// answer.
func (f *fleet) Compile(w http.ResponseWriter, r *http.Request, c server.Compile) error {
	// Every routed compile records a gateway trace: the proxy.route
	// spans land here, the wire identity travels to the shard, and
	// GET /v1/debug/traces/{job_id} merges both sides back together.
	tr := obs.NewTrace("")
	resp, peer, err := f.exchange(obs.WithTrace(r.Context(), tr), c.Key, http.MethodPost, r.URL.RequestURI(), c.Body, nil)
	if err != nil {
		return err
	}
	if id := jobIDOf(resp.Body); id != "" {
		f.jobs.put(id, route{peer: peer, trace: tr})
	}
	relay(w, resp)
	return nil
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

// Job relays the read of a job the gateway's queue does not hold from
// the shard that issued the job, or from the first shard that knows
// the id.
func (f *fleet) Job(w http.ResponseWriter, r *http.Request, id, _ string) bool {
	resp, _ := f.findJob(r.Context(), id, r.Method, r.URL.RequestURI(),
		func(status int) bool { return status != http.StatusNotFound })
	if resp == nil {
		return false
	}
	relay(w, resp)
	return true
}

// Object relays a key-addressed read routed by the ring. A shard that
// doesn't hold the key (404) is not final — after failover an object
// or report may live on a successor, so the search continues through
// the candidates.
func (f *fleet) Object(w http.ResponseWriter, r *http.Request, key string, _ bool) error {
	resp, _, err := f.exchange(r.Context(), key, r.Method, r.URL.Path, nil,
		func(status int) bool { return status != http.StatusNotFound })
	if err != nil {
		return err
	}
	relay(w, resp)
	return nil
}

// Trace is the end-to-end view of a relayed compile: the gateway's own
// span set is the base, and the issuing shard's set is fetched and
// spliced under the proxy.route span that injected the wire identity.
// A failed remote fetch (or an injected trace.fetch fault) degrades to
// the gateway-local spans: a partial trace still answers "where did the
// time go" questions.
func (f *fleet) Trace(ctx context.Context, id string) (obs.SpanSet, bool) {
	rec, ok := f.jobs.get(id)
	if !ok || rec.trace == nil {
		return obs.SpanSet{}, false
	}
	sets := []obs.SpanSet{rec.trace.SpanSet(gatewayNode)}
	f.chaos.Delay(chaos.PointTraceFetch)
	if f.chaos.Fail(chaos.PointTraceFetch) == nil {
		resp, peer := f.findJob(ctx, id, http.MethodGet, "/v1/debug/traces/"+id+"?format=spans",
			func(status int) bool { return status == http.StatusOK })
		if resp != nil && resp.Status == http.StatusOK {
			if ss, err := obs.ParseSpanSet(resp.Body); err == nil {
				if ss.Node == "" {
					ss.Node = peer
				}
				sets = append(sets, ss)
			}
		}
	}
	return obs.MergeSpanSets(sets), true
}

// Health reports the gateway role and the fleet view — per-peer
// up/down and the ring version — and "degraded" while no shard is up.
func (f *fleet) Health(doc map[string]any) string {
	t := f.table
	peers := map[string]string{}
	for _, m := range t.Ring().Members() {
		state := "up"
		if !t.Up(m) {
			state = "down"
		}
		peers[m] = state
	}
	doc["role"] = "gateway"
	doc["ring_version"] = t.Version()
	doc["peers_up"] = t.PeersUp()
	doc["peers_total"] = t.PeersTotal()
	doc["peers"] = peers
	if t.PeersUp() == 0 {
		// A gateway with no reachable shard cannot serve compiles.
		return "degraded"
	}
	return ""
}

// Lookup is the sweep manager's Lookup seam: the gateway holds no
// artifacts, so it asks the key's owning shard (then ring successors)
// for an already-cached report. A hit makes the point a cached row,
// exactly as a warm single daemon's Lookup would, and repeats cost
// zero recompiles; any miss or failure just means the point routes a
// compile.
func (f *fleet) Lookup(key string) (*cache.Entry, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, _, err := f.exchange(ctx, key, http.MethodGet, "/v1/objects/"+key+"/report", nil,
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

// Run is the sweep manager's Run seam: POST the point's normalized
// wire request to the owning shard and build the entry from the
// synchronous answer. A shard lost mid-compile fails the POST at the
// transport, so exchange has already failed over to a successor.
func (f *fleet) Run(ctx context.Context, key string, req canon.Request, _ compiler.Params) (*cache.Entry, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, cerr.Wrap(cerr.CodeInternal, err, "cluster: encoding request for %s", key)
	}
	resp, peer, err := f.exchange(ctx, key, http.MethodPost, "/v1/compile", body, nil)
	if err != nil {
		return nil, err
	}
	return entryFromCompileResponse(peer, key, resp)
}

// entryFromCompileResponse turns a shard's synchronous compile answer
// into a cache entry: the report travels inline.
func entryFromCompileResponse(peer, key string, resp *sweep.RawResponse) (*cache.Entry, error) {
	var env struct {
		Job struct {
			Key      string          `json:"key"`
			Degraded bool            `json:"degraded"`
			Report   json.RawMessage `json:"report"`
		} `json:"job"`
		Error *sweep.WireError `json:"error"`
	}
	if err := json.Unmarshal(resp.Body, &env); err != nil {
		return nil, cerr.Wrap(cerr.CodeInternal, err, "cluster: shard %s returned non-envelope JSON (status %d)", peer, resp.Status)
	}
	if env.Error != nil {
		return nil, wireToErr(env.Error)
	}
	if env.Job.Key != key {
		return nil, cerr.New(cerr.CodeInternal, "cluster: shard %s answered key %s for %s", peer, env.Job.Key, key)
	}
	if len(env.Job.Report) == 0 {
		return nil, cerr.New(cerr.CodeInternal, "cluster: shard %s answered status %d without a report for %s", peer, resp.Status, key)
	}
	return &cache.Entry{Key: key, Report: env.Job.Report, Degraded: env.Job.Degraded}, nil
}

// wireToErr rebuilds a shard's typed error locally, preserving the
// code (so sweep point error codes match a single daemon's) and the
// stage.
func wireToErr(we *sweep.WireError) error {
	code := cerr.CodeInternal
	for _, c := range cerr.Codes() {
		if c.String() == we.Code {
			code = c
		}
	}
	err := error(cerr.New(code, "%s", we.Message))
	if we.Stage != "" {
		err = cerr.WithStage(we.Stage, err)
	}
	return err
}

// scrapeFleet fetches every up ring member's Prometheus exposition
// with bounded fan-out and a per-peer timeout. A member the table
// marks down is not dialled, and one that fails — transport error, bad
// status, unparseable text, injected fault — is skipped; either way it
// counts in fleet_scrape_errors_total and the merge proceeds with the
// rest.
func (g *Gateway) scrapeFleet(ctx context.Context) (scrapes []obs.FleetScrape, errs int) {
	f := g.fleet
	members := f.table.Ring().Members()
	results := make([]*obs.FleetScrape, len(members))
	sem := make(chan struct{}, fleetScrapeFanout)
	var wg sync.WaitGroup
	var errCount atomic.Int64
	for i, m := range members {
		if !f.table.Up(m) {
			errCount.Add(1)
			continue
		}
		wg.Add(1)
		go func(i int, m string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			f.chaos.Delay(chaos.PointFleetScrape)
			if err := f.chaos.Fail(chaos.PointFleetScrape); err != nil {
				errCount.Add(1)
				return
			}
			pctx, cancel := context.WithTimeout(ctx, fleetScrapeTimeout)
			defer cancel()
			resp, err := f.client.DoRaw(pctx, http.MethodGet, m+"/metrics?format=prometheus", nil)
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
	f.scrapeErrors.Add(uint64(n))
	return scrapes, n
}

// fleetMetrics is GET /metrics?scope=fleet: one merged metric
// document for the whole fleet — counters summed, histogram buckets
// summed, gauges labelled per node — as JSON by default or Prometheus
// text with ?format=prometheus.
func (g *Gateway) fleetMetrics(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	scrapes, errs := g.scrapeFleet(r.Context())
	merged := obs.MergeFleet(scrapes)
	g.fleet.scrapeDur.ObserveDuration(time.Since(t0))
	nodes := make([]string, 0, len(scrapes))
	for _, sc := range scrapes {
		nodes = append(nodes, sc.Node)
	}
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		obs.WritePrometheus(w, merged)
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"scope":         "fleet",
		"nodes":         nodes,
		"scrape_errors": errs,
		"obs":           obs.FleetSnapshot(merged),
		"uptime_s":      time.Since(g.fleet.start).Seconds(),
	})
}
