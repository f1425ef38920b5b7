package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// options are the benchmark settings one run takes from its flags.
type options struct {
	workload string
	seed     uint64
	// seconds > 0 sizes the measured phase to that many seconds of
	// work at the workload's nominal rate; 0 runs its fixed op count
	// times scale.
	seconds float64
	scale   float64
	// traceDir, when set, selects the traced run and where it writes
	// layers.json and trace.json.
	traceDir   string
	json       bool
	compilePar int
	// probe times extra set-ups in fresh child processes, so setup_s
	// is a median.
	probe bool
}

// bench is one workload run: the stack under test and the state its
// clients share.
type bench struct {
	opts   options
	w      workload
	st     *stack
	oracle *oracle
	drawer *drawer
	// set is the working set hit-serve and mixed-rw repeat.
	set          []compileOp
	setupSamples []coldSample
}

func (b *bench) start(st *stack, err error) error {
	if err != nil {
		return err
	}
	b.st = st
	return nil
}

// Replay and trace budgets of a traced phase.
const (
	replayOps      = 2000
	replayCompiles = 32
	replaySweeps   = 64
	maxFailures    = 100
)

// phase is one measured closed-loop run over the stack.
type phase struct {
	traced   bool
	trace    *obs.Trace
	spans    atomic.Int64
	deadline time.Time
	count    int
	elapsed  time.Duration

	mu      sync.Mutex
	tallies []*tally
}

func (b *bench) newPhase(traced bool) *phase {
	n := float64(b.w.count) * b.opts.scale
	if b.opts.seconds > 0 {
		n = b.w.rate * b.opts.seconds
	}
	ph := &phase{traced: traced, count: max(1, int(n+0.5))}
	if traced {
		ph.trace = obs.NewTrace("bisrbench")
	}
	return ph
}

// overrun bounds a sized phase at this many times its nominal
// seconds, so a pathologically slow run still ends.
const overrun = 4

// run times one pass of the workload's loop.
func (b *bench) run(ph *phase) {
	start := time.Now()
	if b.opts.seconds > 0 {
		ph.deadline = start.Add(time.Duration(overrun * b.opts.seconds * float64(time.Second)))
	}
	b.w.run(b, ph)
	ph.elapsed = time.Since(start)
}

// more reports whether a client should send op i.
func (ph *phase) more(i int) bool {
	return i < ph.count && (ph.deadline.IsZero() || time.Now().Before(ph.deadline))
}

func (ph *phase) newTally() *tally {
	t := &tally{lat: map[string][]float64{}}
	ph.mu.Lock()
	ph.tallies = append(ph.tallies, t)
	ph.mu.Unlock()
	return t
}

// total merges the clients' tallies; call after the phase.
func (ph *phase) total() *tally {
	sum := &tally{lat: map[string][]float64{}}
	for _, t := range ph.tallies {
		for k, v := range t.lat {
			sum.lat[k] = append(sum.lat[k], v...)
		}
		sum.ops += t.ops
		sum.failed += t.failed
		sum.fails = append(sum.fails, t.fails...)
		sum.memHits += t.memHits
		sum.samples = append(sum.samples, t.samples...)
		sum.handler = append(sum.handler, t.handler...)
		sum.transport = append(sum.transport, t.transport...)
		sum.lookups = append(sum.lookups, t.lookups...)
		sum.cold = append(sum.cold, t.cold...)
		sum.specs = append(sum.specs, t.specs...)
		sum.jobs = append(sum.jobs, t.jobs...)
	}
	return sum
}

// tally is one client's record of a phase; clients never share one.
type tally struct {
	lat     map[string][]float64 // latency in ms, by op kind
	ops     int
	failed  int
	fails   []*failure
	memHits int
	samples []coldSample
	// Traced phases also keep what the layer replay needs.
	handler, transport []float64
	lookups            []lookup
	cold               []compileOp
	specs              [][]byte
	jobs               []string
}

// lookup is one compile request as the replay re-runs it.
type lookup struct {
	op     compileOp
	cached bool
}

// record adds one latency sample of kind.
func (t *tally) record(kind string, lat time.Duration) {
	t.lat[kind] = append(t.lat[kind], ms(lat))
}

// fail records f and returns false, so call sites can return it.
func (t *tally) fail(f *failure) bool {
	t.failed++
	if len(t.fails) < maxFailures {
		t.fails = append(t.fails, f)
	}
	return false
}

func (t *tally) observe(ph *phase, kind string, lat time.Duration, op compileOp, job *compileJob) {
	t.record(kind, lat)
	if !ph.traced {
		return
	}
	t.handler = append(t.handler, job.ElapsedMs)
	t.transport = append(t.transport, ms(lat)-job.ElapsedMs)
	if len(t.lookups) < replayOps {
		t.lookups = append(t.lookups, lookup{op: op, cached: job.Cached})
	}
}

// metric is one printed measurement.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run, as -json prints it.
type result struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Nproc      int       `json:"nproc"`
	GoVersion  string    `json:"go_version"`
	CompilePar int       `json:"compile_par"`
	MeasuredS  float64   `json:"measured_s"`
	Traced     bool      `json:"traced"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Metrics    []metric  `json:"metrics"`
	Failures   []failure `json:"failures,omitempty"`
}

func (r *result) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics = append(r.Metrics, metric{name, v, unit})
}

func (r *result) value(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// runWorkload sets the stack up, measures, checks and tears down.
func runWorkload(opts options) (*result, error) {
	w, ok := workloadByName(opts.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opts.workload)
	}
	var setups []float64
	var probed float64
	for opts.probe && len(setups) < maxProbes && (len(setups) < minProbes || probed < probeSeconds) {
		s, err := probeSetup(opts)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		setups = append(setups, s)
		probed += s
	}
	b := &bench{opts: opts, w: w, oracle: newOracle()}
	secs, err := timeSetup(b)
	setups = append(setups, secs)
	if err != nil {
		if b.st != nil {
			b.st.close()
		}
		return nil, fmt.Errorf("setup: %w", err)
	}
	res := &result{
		Workload: w.name, Seed: opts.seed, Nproc: runtime.NumCPU(),
		GoVersion: runtime.Version(), CompilePar: opts.compilePar,
		Traced: opts.traceDir != "",
	}
	runtime.GC()
	var measured *phase
	if res.Traced {
		measured, err = b.traced(res)
	} else {
		measured = b.newPhase(false)
		b.run(measured)
		res.add("setup_s", median(setups), "s")
		res.add("setup_samples", float64(len(setups)), "count")
		b.endToEnd(res, measured)
	}
	if err == nil {
		b.differential(res, measured)
	}
	if cerr := b.st.close(); err == nil && cerr != nil {
		err = fmt.Errorf("teardown: %w", cerr)
	}
	return res, err
}

// timeSetup builds the workload's stack and warms it, in seconds.
func timeSetup(b *bench) (float64, error) {
	t0 := time.Now()
	err := b.w.setup(b)
	return time.Since(t0).Seconds(), err
}

// endToEnd derives the user-visible metrics of an untraced phase.
func (b *bench) endToEnd(res *result, ph *phase) {
	t := ph.total()
	secs := ph.elapsed.Seconds()
	res.MeasuredS = secs
	res.account(t)
	primary := t.lat[b.w.primary]
	res.add("ops_per_s", float64(t.ops)/secs, "1/s")
	res.add("latency_p50_ms", quantile(primary, 0.5), "ms")
	res.add("latency_p90_ms", quantile(primary, 0.9), "ms")
	if len(primary) >= 1000 {
		res.add("latency_p99_ms", quantile(primary, 0.99), "ms")
	}
	res.add("peak_rss_mb", peakRSSMB(), "MB")
	res.add("samples", float64(len(primary)), "count")
	for _, kind := range []string{"compile", "hit", "sweep_cold"} {
		if v := t.lat[kind]; len(v) > 0 {
			res.add(kind+"_p50_ms", quantile(v, 0.5), "ms")
			res.add(kind+"_p90_ms", quantile(v, 0.9), "ms")
		}
	}
	for _, kind := range []string{"sweep_repeat", "sweep_mc"} {
		if v := t.lat[kind]; len(v) > 0 {
			res.add(kind+"_p50_ms", quantile(v, 0.5), "ms")
		}
	}
	if n := len(t.lat["hit"]); n > 0 {
		res.add("memory_hit_ratio", float64(t.memHits)/float64(n), "ratio")
	}
}

// account adds a phase's ops and failures to the result.
func (r *result) account(t *tally) {
	r.Attempted += t.ops
	r.Failed += t.failed
	for _, f := range t.fails {
		if len(r.Failures) < maxFailures {
			r.Failures = append(r.Failures, *f)
		}
	}
}

// differential runs the determinism check over the sampled cold
// reports and adds error_rate.
func (b *bench) differential(res *result, ph *phase) {
	samples := append(slices.Clone(b.setupSamples), ph.total().samples...)
	for _, s := range samples {
		res.Attempted++
		if f := differential(s); f != nil {
			res.Failed++
			if len(res.Failures) < maxFailures {
				res.Failures = append(res.Failures, *f)
			}
		}
	}
	res.add("differential_checks", float64(len(samples)), "count")
	res.add("error_rate", float64(res.Failed)/float64(max(1, res.Attempted)), "ratio")
}

// report prints every metric as "name value unit", the -json document
// when asked, and last the one-line summary.
func report(w io.Writer, res *result, asJSON bool) error {
	fmt.Fprintf(w, "# %s seed=%d nproc=%d %s compile_par=%d measured_s=%s\n",
		res.Workload, res.Seed, res.Nproc, res.GoVersion, res.CompilePar, fmtFloat(res.MeasuredS))
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "%s %s %s\n", m.Name, fmtFloat(m.Value), m.Unit)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "# FAIL %s\n", f.Error())
	}
	if asJSON {
		doc, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", doc)
	}
	return reportSummary(w, res)
}

// reportSummary prints the one-line JSON summary: correct, attempted,
// failed, and the metrics BENCHMARK.json lists for the run's mode.
func reportSummary(w io.Writer, res *result) error {
	names := endToEndNames
	if res.Traced {
		names = layerNames()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, name := range names {
		m, ok := res.value(name)
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		summary.Metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// endToEndNames are the gated metrics BENCHMARK.json lists, which every
// workload reports.
var endToEndNames = []string{"setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb"}

// quantile interpolates linearly between order statistics (numpy's
// default); it returns NaN for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
