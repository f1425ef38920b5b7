// Package sweep is the batch subsystem of the bisramgend service: it
// expands a base compile request plus per-axis value lists (process,
// words, bits per word, spare rows, defect density, march test) into
// the cross product of concrete sweep points, runs each unique
// compile through the shared jobs queue exactly once (points that
// differ only in analysis parameters — defect density — share one
// compile; points already resident in the two-tier artifact store
// cost zero compiles), and aggregates per-point yield/area/timing
// rows suitable for reproducing the paper's Fig. 4/5 and
// Tables II/III.
//
// The paper's evaluation is exactly this shape — yield vs defect
// density across spare-row counts, cost across processor
// configurations — which is why cmd/experiments runs as a client of
// this API.
package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/cerr"
	"repro/internal/chaos"
	"repro/internal/compiler"
	"repro/internal/jobs"
	"repro/internal/leafcell"
	"repro/internal/mcyield"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/tech"
	"repro/internal/yield"
)

// DefaultMaxPoints bounds the expanded cross product of one sweep.
const DefaultMaxPoints = 4096

// DefaultRetain bounds how many sweeps the manager remembers
// (oldest finished sweeps are forgotten first).
const DefaultRetain = 256

// Axes lists the swept dimensions. An empty axis means "the base
// request's value". Defects is an analysis axis: it selects the
// defect counts the yield model is evaluated at and never affects the
// compile (points differing only in defects share one compile).
// MCSamples and MCSigma are analysis axes in the same sense: they
// select seeded Monte-Carlo statistical-yield runs (internal/mcyield)
// over the compiled design, so every MC variant of a point shares the
// one compile too.
type Axes struct {
	Process   []string  `json:"process,omitempty"`
	Words     []int     `json:"words,omitempty"`
	Bits      []int     `json:"bits,omitempty"` // bits per word (bpw)
	Spares    []int     `json:"spares,omitempty"`
	Defects   []float64 `json:"defects,omitempty"`
	Tests     []string  `json:"test,omitempty"`
	MCSamples []int     `json:"mc_samples,omitempty"`
	MCSigma   []float64 `json:"mc_sigma,omitempty"`
}

// Spec is the POST /v1/sweeps wire form.
type Spec struct {
	// Version is the sweep wire-format version; 0 defaults to
	// canon.WireVersion, anything else must equal it.
	Version int `json:"version,omitempty"`
	// Base is the compile request every point starts from.
	Base canon.Request `json:"base"`
	// Axes are the swept dimensions.
	Axes Axes `json:"axes"`
	// Priority is the jobs queue class for the sweep's compiles;
	// empty defaults to "batch" so sweeps yield to interactive
	// traffic.
	Priority string `json:"priority,omitempty"`
}

// ParseSpec decodes the sweep wire form strictly (unknown fields and
// trailing garbage rejected) and validates the version.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, cerr.Wrap(cerr.CodeBadRequest, err, "sweep: bad spec JSON")
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) != 0 {
		return Spec{}, cerr.New(cerr.CodeBadRequest, "sweep: trailing data after spec JSON")
	}
	if s.Version != 0 && s.Version != canon.WireVersion {
		return Spec{}, cerr.New(cerr.CodeBadRequest,
			"sweep: unsupported spec version %d (this server speaks version %d)",
			s.Version, canon.WireVersion)
	}
	return s, nil
}

// Point is one expanded sweep coordinate: a concrete compile request
// plus the analysis defect count.
type Point struct {
	Req     canon.Request
	Defects float64
}

// Expand returns the cross product of the spec's axes over its base
// request, bounded by maxPoints. Axis order (process, words, bits,
// spares, test, defects, mc_samples, mc_sigma) fixes the point
// indexing, so identical specs always enumerate identically; the MC
// axes are innermost so adding them never reorders a pre-existing
// sweep's points.
func (s Spec) Expand(maxPoints int) ([]Point, error) {
	if maxPoints <= 0 {
		maxPoints = DefaultMaxPoints
	}
	procs := s.Axes.Process
	if len(procs) == 0 {
		procs = []string{s.Base.Process} // "" keeps the base/default deck
	}
	words := s.Axes.Words
	if len(words) == 0 {
		words = []int{s.Base.Words}
	}
	bits := s.Axes.Bits
	if len(bits) == 0 {
		bits = []int{s.Base.BPW}
	}
	spares := s.Axes.Spares
	if len(spares) == 0 {
		spares = []int{s.Base.Spares}
	}
	tests := s.Axes.Tests
	if len(tests) == 0 {
		tests = []string{s.Base.Test} // "" keeps the base march/test
	}
	defects := s.Axes.Defects
	if len(defects) == 0 {
		defects = []float64{0}
	}
	for _, df := range defects {
		if err := yield.CheckDefects(df); err != nil {
			return nil, cerr.Wrap(cerr.CodeOf(err), err, "sweep: defects axis")
		}
	}
	mcSamples := s.Axes.MCSamples
	if len(mcSamples) == 0 {
		mcSamples = []int{s.Base.MCSamples}
	}
	mcSigma := s.Axes.MCSigma
	if len(mcSigma) == 0 {
		mcSigma = []float64{s.Base.MCSigma}
	}

	// Multiply the axis lengths with the cap checked at every step: a
	// single unchecked product could overflow int on adversarial specs
	// and turn the cap test into a negative-capacity panic.
	n := 1
	for _, l := range []int{len(procs), len(words), len(bits), len(spares), len(tests), len(defects), len(mcSamples), len(mcSigma)} {
		n *= l
		if n > maxPoints {
			return nil, cerr.New(cerr.CodeBadRequest,
				"sweep: cross product exceeds the per-sweep cap of %d points", maxPoints)
		}
	}
	if n == 0 {
		return nil, cerr.New(cerr.CodeBadRequest, "sweep: empty cross product")
	}
	out := make([]Point, 0, n)
	for _, pr := range procs {
		for _, w := range words {
			for _, b := range bits {
				for _, sp := range spares {
					for _, ts := range tests {
						for _, df := range defects {
							for _, ms := range mcSamples {
								for _, mg := range mcSigma {
									req := s.Base
									if pr != "" {
										req.Process, req.Deck = pr, ""
									}
									if w != 0 {
										req.Words = w
									}
									if b != 0 {
										req.BPW = b
									}
									req.Spares = sp
									if ts != "" {
										req.Test, req.March = ts, ""
									}
									req.MCSamples = ms
									req.MCSigma = mg
									out = append(out, Point{Req: req, Defects: df})
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// pointState is a point's lifecycle position.
type pointState int32

const (
	pointPending pointState = iota
	pointDone
	pointFailed
)

// Metrics are the per-compile figures a sweep row derives from the
// cached datasheet report.
type Metrics struct {
	Rows         int
	Cols         int
	GrowthFactor float64
	AreaTotalMm2 float64
	OverheadPct  float64
	AccessNs     float64
	Degraded     bool
}

// MetricsFromEntry extracts the sweep metrics from a cached compile
// entry's canonical report.
func MetricsFromEntry(e *cache.Entry) (Metrics, error) {
	var r compiler.Report
	if err := json.Unmarshal(e.Report, &r); err != nil {
		return Metrics{}, cerr.Wrap(cerr.CodeInternal, err, "sweep: report parse")
	}
	return Metrics{
		Rows:         r.Organisation.Rows,
		Cols:         r.Organisation.Columns,
		GrowthFactor: r.Area.GrowthFactor,
		AreaTotalMm2: r.Area.Total / 1e6,
		OverheadPct:  r.Area.OverheadPct,
		AccessNs:     r.Timing.AccessNs,
		Degraded:     len(r.Degradations) > 0,
	}, nil
}

// point is the manager's per-point record.
type point struct {
	index   int
	req     canon.Request // normalized
	defects float64
	key     string
	spares  int

	state   pointState
	cached  bool
	err     error
	metrics Metrics
	mc      *MCRow // statistical-yield verdict, when the point asked for one
}

// group is one unique compile shared by 1..n points.
type group struct {
	key    string
	params compiler.Params
	// req is the normalized wire request producing key — what a
	// federated Run forwards to the owning shard instead of compiling
	// locally.
	req    canon.Request
	points []*point
	job    *jobs.Job // nil when served from the store
}

// Sweep is one tracked batch. Fields set at creation are immutable;
// mutable state is guarded by mu.
type Sweep struct {
	ID      string
	created time.Time
	spec    Spec

	// feed is the bounded live-progress event log (see events.go),
	// sized at creation to hold every point transition.
	feed *feed

	mu      sync.Mutex
	points  []*point
	groups  []*group
	pending int // points not yet terminal
	// transient marks that at least one point failed with a retryable
	// shed/drain error: the journal record is retained for resume.
	transient bool
	done      chan struct{}
}

// Done is closed when every point is terminal.
func (sw *Sweep) Done() <-chan struct{} { return sw.done }

// PointStatus is one point's slot in the status document.
type PointStatus struct {
	Index     int     `json:"index"`
	Key       string  `json:"key"`
	JobID     string  `json:"job_id,omitempty"`
	Status    string  `json:"status"` // pending | queued | running | done | failed
	Cached    bool    `json:"cached,omitempty"`
	Error     string  `json:"error,omitempty"`
	ErrorCode string  `json:"error_code,omitempty"`
	Words     int     `json:"words"`
	BPW       int     `json:"bpw"`
	BPC       int     `json:"bpc"`
	Spares    int     `json:"spares"`
	Process   string  `json:"process"`
	Test      string  `json:"test"`
	Defects   float64 `json:"defects"`
}

// Status is the GET /v1/sweeps/{id} document: aggregate progress plus
// per-point status.
type Status struct {
	ID             string        `json:"id"`
	State          string        `json:"state"` // running | done | failed
	Total          int           `json:"total"`
	Pending        int           `json:"pending"`
	Done           int           `json:"done"`
	Failed         int           `json:"failed"`
	Cached         int           `json:"cached"`
	UniqueCompiles int           `json:"unique_compiles"`
	CreatedAt      string        `json:"created_at"`
	Points         []PointStatus `json:"points"`
}

// Row is one results row — the columns Fig. 4/5 and Tables II/III
// derive from: the compiled array's measured growth factor, area and
// access time, plus the yield model evaluated at the point's defect
// count (no-repair baseline and BISR, as the paper plots them).
type Row struct {
	Index         int     `json:"index"`
	Words         int     `json:"words"`
	BPW           int     `json:"bpw"`
	BPC           int     `json:"bpc"`
	Spares        int     `json:"spares"`
	Process       string  `json:"process"`
	Test          string  `json:"test"`
	Defects       float64 `json:"defects"`
	GrowthFactor  float64 `json:"growth_factor"`
	AreaTotalMm2  float64 `json:"area_total_mm2"`
	OverheadPct   float64 `json:"overhead_pct"`
	AccessNs      float64 `json:"access_ns"`
	YieldNoRepair float64 `json:"yield_no_repair"`
	YieldBISR     float64 `json:"yield_bisr"`
	Improvement   float64 `json:"improvement"`
	Cached        bool    `json:"cached"`
	Degraded      bool    `json:"degraded,omitempty"`
	// MC carries the seeded Monte-Carlo statistical-yield estimate for
	// points that set mc_samples/mc_sigma; absent otherwise.
	MC *MCRow `json:"mc,omitempty"`
}

// MCRow is the statistical-yield block of a results row: the
// parametric (variation-driven) failure view that complements the
// defect-driven closed-form yield columns. YieldArray is the
// probability every cell of this point's array works, so comparing it
// against YieldNoRepair on the same row puts the Monte-Carlo and
// closed-form models side by side.
type MCRow struct {
	Samples    int     `json:"samples"`
	Sigma      float64 `json:"sigma"`
	Seed       int64   `json:"seed"`
	FailProb   float64 `json:"fail_prob"`
	StdErr     float64 `json:"std_err"`
	SigmaLevel float64 `json:"sigma_level"`
	HoldFails  int     `json:"hold_fails"`
	ReadFails  int     `json:"read_fails"`
	WriteFails int     `json:"write_fails"`
	Diverged   int     `json:"diverged"`
	YieldCell  float64 `json:"yield_cell"`
	YieldArray float64 `json:"yield_array"`
}

// Results is the GET /v1/sweeps/{id}/results document. Rows cover
// terminal successful points only; Complete is true once every point
// is terminal.
type Results struct {
	SweepID  string `json:"sweep_id"`
	Complete bool   `json:"complete"`
	Total    int    `json:"total"`
	Failed   int    `json:"failed"`
	Rows     []Row  `json:"rows"`
}

// Page is the pagination metadata a paged results response carries in
// its envelope: the window served, the total row count, and the offset
// of the next page (absent on the last page).
type Page struct {
	Offset     int  `json:"offset"`
	Limit      int  `json:"limit"`
	Total      int  `json:"total"`
	NextOffset *int `json:"next_offset,omitempty"`
}

// Paginate returns a copy of r restricted to rows [offset,
// offset+limit) plus the matching page metadata. limit <= 0 means "to
// the end"; an offset at or past the row count yields an empty page.
// The document-level counters (Total, Failed, Complete) always
// describe the whole sweep, not the window.
func (r Results) Paginate(offset, limit int) (Results, Page) {
	n := len(r.Rows)
	if offset < 0 {
		offset = 0
	}
	if offset > n {
		offset = n
	}
	end := n
	if limit > 0 && offset+limit < n {
		end = offset + limit
	}
	pg := Page{Offset: offset, Limit: end - offset, Total: n}
	if end < n {
		next := end
		pg.NextOffset = &next
	}
	out := r
	out.Rows = r.Rows[offset:end]
	return out, pg
}

// Config wires a Manager. Lookup and Run are the seams to the serving
// layer: Lookup probes the two-tier artifact cache without compiling;
// Run executes one compile under the jobs queue — the daemon's
// pipeline + render + cache fill, or (on the gateway) a proxied
// compile against the key's owning shard, which is why Run also
// receives the normalized wire request alongside the derived params.
type Config struct {
	Queue  *jobs.Queue
	Lookup func(key string) (*cache.Entry, bool)
	Run    func(ctx context.Context, key string, req canon.Request, p compiler.Params) (*cache.Entry, error)
	// Registry receives the sweep counters; nil disables telemetry.
	Registry *obs.Registry
	// Journal, when non-nil, checkpoints sweeps to disk: the spec is
	// written before any group launches, and a cleanly-finished sweep
	// removes its record. A sweep that ends with transiently-failed
	// points (shed or drained compiles) keeps its record so Resume can
	// finish it after a restart.
	Journal *Journal
	// Chaos, when non-nil, is threaded into the Monte-Carlo yield
	// engine so fault-injection configs can abort mc.sample chunks.
	Chaos *chaos.Injector
}

// Manager owns the sweep registry and drives point execution.
type Manager struct {
	cfg Config

	mu     sync.Mutex
	sweeps map[string]*Sweep
	order  []string // creation order, for retention
	nextID uint64

	created      *obs.Counter
	pointsTotal  *obs.Counter
	pointsCached *obs.Counter
	pointsFailed *obs.Counter

	// mcStats instruments the Monte-Carlo yield engine.
	mcStats *mcyield.Stats
}

// The Monte-Carlo memo. An estimate is a pure function of (deck
// content, samples, sigma, seed), so every array geometry sharing a
// process reuses one cell-level run, across points, sweeps and
// managers. The memo's single flight collapses concurrent identical
// requests from racing group-finish goroutines into one run, while
// estimates under different keys run side by side.
const estimateMemoCap = 512

// mcKey is the lossless key of one estimate; the shift is always
// mcyield.DefaultShift.
type mcKey struct {
	deck    leafcell.DeckDigest
	samples int
	sigma   float64
	seed    int64
}

var estimateMemo = memo.New[mcKey, mcyield.Result]("mcyield", estimateMemoCap)

// NewManager builds a manager.
func NewManager(cfg Config) *Manager {
	m := &Manager{cfg: cfg, sweeps: map[string]*Sweep{}}
	r := cfg.Registry
	m.mcStats = mcyield.NewStats(r)
	m.created = r.Counter("sweeps_created_total", "Sweeps accepted by POST /v1/sweeps.")
	m.pointsTotal = r.Counter("sweep_points_total", "Sweep points expanded across all sweeps.")
	m.pointsCached = r.Counter("sweep_points_cached_total",
		"Sweep points satisfied from the artifact store without a compile.")
	m.pointsFailed = r.Counter("sweep_points_failed_total", "Sweep points whose compile failed.")
	return m
}

// Create expands, validates and launches a sweep: every point is
// resolved to its content key, points sharing a key form one group,
// groups already resident in the artifact store finish immediately
// (zero compiles), and the rest are submitted to the jobs queue —
// which itself dedups against identical in-flight compiles from any
// other submitter.
func (m *Manager) Create(spec Spec) (*Sweep, error) {
	return m.create(spec, "")
}

// Resume re-launches every journaled sweep that never completed,
// keeping its original ID. Groups whose entries reached the store
// replay through the content-addressed Lookup, so resumed sweeps
// converge to byte-identical results without recompiling them.
// Returns how many sweeps resumed.
func (m *Manager) Resume() (int, error) {
	if m.cfg.Journal == nil {
		return 0, nil
	}
	recs, err := m.cfg.Journal.Pending()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, rec := range recs {
		if _, ok := m.Get(rec.ID); ok {
			continue // already live in this process
		}
		if _, cerr := m.create(rec.Spec, rec.ID); cerr != nil {
			// The journaled spec no longer validates (e.g. a wire-version
			// bump across the restart): it can never resume, so drop the
			// record instead of retrying it forever.
			m.cfg.Journal.Complete(rec.ID)
			continue
		}
		n++
	}
	return n, nil
}

// create is Create with an optional forced ID (the resume path reuses
// journaled IDs; fresh sweeps allocate the next one).
func (m *Manager) create(spec Spec, forcedID string) (*Sweep, error) {
	if spec.Version != 0 && spec.Version != canon.WireVersion {
		return nil, cerr.New(cerr.CodeBadRequest,
			"sweep: unsupported spec version %d", spec.Version)
	}
	pri, err := parsePriority(spec.Priority)
	if err != nil {
		return nil, err
	}
	raw, err := spec.Expand(DefaultMaxPoints)
	if err != nil {
		return nil, err
	}

	sw := &Sweep{
		created: time.Now(),
		spec:    spec,
		done:    make(chan struct{}),
	}
	byKey := map[string]*group{}
	for i, rp := range raw {
		params, perr := rp.Req.Params()
		if perr != nil {
			return nil, cerr.Wrap(cerr.CodeOf(perr), perr, "sweep: point %d invalid", i)
		}
		key, kerr := canon.KeyOfParams(params)
		if kerr != nil {
			return nil, kerr
		}
		pt := &point{
			index:   i,
			req:     rp.Req.Normalized(),
			defects: rp.Defects,
			key:     key,
			spares:  rp.Req.Spares,
		}
		sw.points = append(sw.points, pt)
		g, ok := byKey[key]
		if !ok {
			g = &group{key: key, params: params, req: pt.req}
			byKey[key] = g
			sw.groups = append(sw.groups, g)
		}
		g.points = append(g.points, pt)
	}
	sw.pending = len(sw.points)

	m.mu.Lock()
	if forcedID != "" {
		sw.ID = forcedID
		// Keep fresh IDs ahead of every resumed one so they never
		// collide.
		var seq uint64
		if _, serr := fmt.Sscanf(forcedID, "sweep-%d", &seq); serr == nil && seq > m.nextID {
			m.nextID = seq
		}
	} else {
		m.nextID++
		sw.ID = fmt.Sprintf("sweep-%06d", m.nextID)
	}
	// Assigned before the sweep becomes visible so a racing events
	// subscriber never sees a nil feed.
	sw.feed = newFeed(sw.ID)
	m.sweeps[sw.ID] = sw
	m.order = append(m.order, sw.ID)
	m.retainLocked()
	m.mu.Unlock()
	m.created.Inc()
	m.pointsTotal.Add(uint64(len(sw.points)))

	// Write-ahead: the journal record lands before any group launches,
	// so a crash at any later instant can resume the whole sweep.
	// Journal IO failure is logged by omission (the sweep still runs,
	// it just loses its resume guarantee) rather than failing creation.
	m.cfg.Journal.Begin(sw.ID, spec)

	// Launch the groups. Store hits finish synchronously; misses go
	// through the queue with one waiter goroutine per group.
	for _, g := range sw.groups {
		if entry, ok := m.cfg.Lookup(g.key); ok {
			m.finishGroup(sw, g, entry, nil, true)
			continue
		}
		g := g
		params := g.params
		key := g.key
		req := g.req
		job, _, serr := m.cfg.Queue.Submit(key, pri, nil, func(ctx context.Context) (any, error) {
			return m.cfg.Run(ctx, key, req, params)
		})
		if serr != nil {
			// Queue full or draining: the whole group fails (the sweep
			// as a unit stays useful — other groups proceed).
			m.finishGroup(sw, g, nil, serr, false)
			continue
		}
		sw.mu.Lock()
		g.job = job
		sw.mu.Unlock()
		for _, pt := range g.points {
			sw.feed.emit(Event{Type: "point", Point: &PointEvent{
				Index: pt.index, Key: pt.key, Status: "started",
			}})
		}
		go func() {
			v, jerr := job.Result(context.Background())
			if jerr != nil {
				m.finishGroup(sw, g, nil, jerr, false)
				return
			}
			m.finishGroup(sw, g, v.(*cache.Entry), nil, false)
		}()
	}
	return sw, nil
}

// parsePriority maps the sweep wire priority (default batch) onto the
// jobs classes.
func parsePriority(s string) (jobs.Priority, error) {
	if s == "" {
		return jobs.Batch, nil
	}
	return jobs.ParsePriority(s)
}

// finishGroup marks every point of g terminal with the given outcome
// and — once the whole sweep is terminal — either completes the
// journal record (clean finish) or retains it for resume (a shed or
// drained group means the sweep was cut short by overload/shutdown,
// not by its own inputs).
func (m *Manager) finishGroup(sw *Sweep, g *group, entry *cache.Entry, err error, cached bool) {
	var met Metrics
	if err == nil {
		met, err = MetricsFromEntry(entry)
	}
	// Statistical yield runs after the compile succeeds but before the
	// sweep lock: estimates cost real CPU time, and other groups must
	// stay free to finish concurrently. A per-point MC failure fails
	// just that point; the group's compile result still serves the
	// rest.
	var mcRows map[*point]*MCRow
	var mcErrs map[*point]error
	if err == nil {
		mcRows, mcErrs = m.mcForGroup(g, met)
	}
	sw.mu.Lock()
	for _, pt := range g.points {
		if pt.state != pointPending {
			continue
		}
		perr := err
		if perr == nil {
			perr = mcErrs[pt]
		}
		pe := PointEvent{Index: pt.index, Key: pt.key}
		if perr != nil {
			pt.state = pointFailed
			pt.err = perr
			m.pointsFailed.Inc()
			if transientFailure(perr) {
				sw.transient = true
			}
			pe.Status = "failed"
			pe.Error = perr.Error()
			pe.ErrorCode = cerr.CodeOf(perr).String()
		} else {
			pt.state = pointDone
			pt.cached = cached
			pt.metrics = met
			pt.mc = mcRows[pt]
			if cached {
				m.pointsCached.Inc()
			}
			pe.Status = "completed"
			if cached {
				pe.Status = "cached"
				pe.Cached = true
			}
		}
		sw.pending--
		sw.feed.emit(Event{Type: "point", Point: &pe})
	}
	finished := sw.pending == 0
	transient := sw.transient
	if finished {
		// Emitted under sw.mu so the terminal summary is always the
		// feed's last numbered event, after every point's terminal frame.
		sum := sw.summaryLocked()
		sw.feed.emit(Event{Type: "summary", Summary: &sum})
	}
	sw.mu.Unlock()
	if finished {
		// Complete before close: a waiter that sees the sweep done must
		// also see its journal record gone, or a crash in between would
		// resume a sweep the client already saw finish.
		if !transient {
			m.cfg.Journal.Complete(sw.ID)
		}
		close(sw.done)
	}
}

// mcForGroup runs the Monte-Carlo yield engine for every point of g
// that asked for it, returning per-point rows and errors. Runs
// unlocked — estimates take real CPU time — and racing callers with
// one key share a single estimate through the memo.
func (m *Manager) mcForGroup(g *group, met Metrics) (map[*point]*MCRow, map[*point]error) {
	var rows map[*point]*MCRow
	var errs map[*point]error
	for _, pt := range g.points {
		if !pt.req.MCEnabled() {
			continue
		}
		res, err := m.mcEstimate(g.params.Process, pt.req)
		if err != nil {
			if errs == nil {
				errs = map[*point]error{}
			}
			errs[pt] = cerr.Wrap(cerr.CodeOf(err), err, "sweep: point %d statistical yield", pt.index)
			continue
		}
		if rows == nil {
			rows = map[*point]*MCRow{}
		}
		rows[pt] = &MCRow{
			Samples: res.Samples, Sigma: res.Sigma, Seed: res.Seed,
			FailProb: res.FailProb, StdErr: res.StdErr, SigmaLevel: res.SigmaLevel,
			HoldFails: res.HoldFails, ReadFails: res.ReadFails,
			WriteFails: res.WriteFails, Diverged: res.Diverged,
			YieldCell:  res.CellYield(),
			YieldArray: mcyield.ArrayYield(res.FailProb, met.Rows*met.Cols),
		}
	}
	return rows, errs
}

// mcEstimate memoizes mcyield.Estimate on mcKey — the full
// determinism contract — so every geometry sharing a process reuses
// one cell-level run. Only successes memoize: a chaos-injected abort
// must not poison later estimates.
func (m *Manager) mcEstimate(proc *tech.Process, req canon.Request) (mcyield.Result, error) {
	deck, err := leafcell.DigestDeck(proc)
	if err != nil {
		return mcyield.Result{}, cerr.Wrap(cerr.CodeInternal, err, "sweep: statistical yield key")
	}
	key := mcKey{deck: deck, samples: req.MCSamples, sigma: req.MCSigma, seed: req.MCSeed}
	res, _, err := estimateMemo.Do(key, func() (mcyield.Result, error) {
		return mcyield.Estimate(context.Background(), mcyield.Config{
			Process: proc,
			Samples: req.MCSamples,
			Sigma:   req.MCSigma,
			Shift:   mcyield.DefaultShift,
			Seed:    req.MCSeed,
			Chaos:   m.cfg.Chaos,
			Stats:   m.mcStats,
		})
	})
	return res, err
}

// transientFailure classifies errors that a restart (or a retry)
// would plausibly clear: shed load and drain/deadline cancellations.
// Deterministic input failures (bad params, repair unsuccessful,
// diverged simulation) are final — resuming would just re-fail them.
func transientFailure(err error) bool {
	switch cerr.CodeOf(err) {
	case cerr.CodeOverloaded, cerr.CodeBudgetExceeded:
		return true
	}
	return false
}

// retainLocked forgets the oldest finished sweeps beyond the
// retention cap. Caller holds m.mu.
func (m *Manager) retainLocked() {
	for len(m.order) > DefaultRetain {
		evicted := false
		for i, id := range m.order {
			sw := m.sweeps[id]
			sw.mu.Lock()
			fin := sw.pending == 0
			sw.mu.Unlock()
			if fin {
				delete(m.sweeps, id)
				m.order = append(m.order[:i], m.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything retained is still running
		}
	}
}

// Get resolves a sweep by id.
func (m *Manager) Get(id string) (*Sweep, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sw, ok := m.sweeps[id]
	return sw, ok
}

// Backlog is the /healthz view of sweep resume debt: what a restart
// right now would owe.
type Backlog struct {
	// InFlightSweeps counts sweeps with at least one pending point.
	InFlightSweeps int `json:"in_flight_sweeps"`
	// PendingPoints counts points not yet terminal across all sweeps.
	PendingPoints int `json:"pending_points"`
	// UnjournaledPoints is the pending work a restart would lose
	// outright: equal to PendingPoints when no journal is configured
	// (nothing is durable), 0 otherwise — every journaled sweep has a
	// write-ahead record, so its pending points resume instead of
	// vanishing.
	UnjournaledPoints int `json:"unjournaled_points"`
}

// Backlog snapshots the manager's in-flight sweep debt for health
// reporting.
func (m *Manager) Backlog() Backlog {
	m.mu.Lock()
	sweeps := make([]*Sweep, 0, len(m.sweeps))
	for _, sw := range m.sweeps {
		sweeps = append(sweeps, sw)
	}
	m.mu.Unlock()
	var b Backlog
	for _, sw := range sweeps {
		sw.mu.Lock()
		pending := sw.pending
		sw.mu.Unlock()
		if pending > 0 {
			b.InFlightSweeps++
			b.PendingPoints += pending
		}
	}
	if m.cfg.Journal == nil {
		b.UnjournaledPoints = b.PendingPoints
	}
	return b
}

// Status snapshots the sweep: its totals and state from
// summaryLocked, plus one PointStatus per point.
func (sw *Sweep) Status() Status {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sum := sw.summaryLocked()
	st := Status{
		ID:    sw.ID,
		State: sum.State, Total: sum.Total, Pending: sum.Pending,
		Done: sum.Done, Failed: sum.Failed, Cached: sum.Cached,
		UniqueCompiles: len(sw.groups),
		CreatedAt:      sw.created.UTC().Format(time.RFC3339Nano),
	}
	jobByKey := map[string]*jobs.Job{}
	for _, g := range sw.groups {
		if g.job != nil {
			jobByKey[g.key] = g.job
		}
	}
	for _, pt := range sw.points {
		ps := PointStatus{
			Index: pt.index, Key: pt.key,
			Words: pt.req.Words, BPW: pt.req.BPW, BPC: pt.req.BPC,
			Spares: pt.spares, Process: describeProcess(pt.req),
			Test: describeTest(pt.req), Defects: pt.defects,
			Cached: pt.cached,
		}
		if j := jobByKey[pt.key]; j != nil {
			ps.JobID = j.ID
		}
		switch pt.state {
		case pointDone:
			ps.Status = "done"
		case pointFailed:
			ps.Status = "failed"
			ps.Error = pt.err.Error()
			ps.ErrorCode = cerr.CodeOf(pt.err).String()
		default:
			ps.Status = "queued"
			if j := jobByKey[pt.key]; j != nil && j.State() == jobs.StateRunning {
				ps.Status = "running"
			}
		}
		st.Points = append(st.Points, ps)
	}
	return st
}

// describeProcess names the point's process for status/result rows.
func describeProcess(r canon.Request) string {
	if r.Deck != "" {
		return "inline-deck"
	}
	return r.Process
}

// describeTest names the point's march test.
func describeTest(r canon.Request) string {
	if r.March != "" {
		return "custom"
	}
	return r.Test
}

// Results derives the evaluation rows from the terminal points: the
// measured growth factor feeds the yield model at the point's defect
// count, exactly as Fig. 4 builds its curves from compiled layouts.
func (sw *Sweep) Results() Results {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	res := Results{
		SweepID:  sw.ID,
		Complete: sw.pending == 0,
		Total:    len(sw.points),
	}
	for _, pt := range sw.points {
		switch pt.state {
		case pointFailed:
			res.Failed++
			continue
		case pointPending:
			continue
		}
		met := pt.metrics
		row := Row{
			Index: pt.index,
			Words: pt.req.Words, BPW: pt.req.BPW, BPC: pt.req.BPC,
			Spares: pt.spares, Process: describeProcess(pt.req),
			Test: describeTest(pt.req), Defects: pt.defects,
			GrowthFactor: met.GrowthFactor,
			AreaTotalMm2: met.AreaTotalMm2,
			OverheadPct:  met.OverheadPct,
			AccessNs:     met.AccessNs,
			Cached:       pt.cached,
			Degraded:     met.Degraded,
		}
		base := yield.Model{Rows: met.Rows, Cols: met.Cols, GrowthFactor: 1}
		row.YieldNoRepair = base.YieldNoRepair(pt.defects)
		if pt.spares > 0 {
			m := yield.Model{
				Rows: met.Rows, Cols: met.Cols,
				Spares: pt.spares, GrowthFactor: met.GrowthFactor,
			}
			row.YieldBISR = m.YieldBISR(pt.defects)
			row.Improvement = m.ImprovementFactor(pt.defects)
		} else {
			row.YieldBISR = row.YieldNoRepair
			row.Improvement = 1
		}
		row.MC = pt.mc
		res.Rows = append(res.Rows, row)
	}
	return res
}
