package obs

import (
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultBuckets are the fixed latency buckets (seconds) used by the
// pipeline's duration histograms: 100 µs to 60 s, roughly log-spaced.
// Fixed buckets keep Observe lock-free (one binary search + two
// atomic adds) and make the Prometheus exposition byte-deterministic.
var DefaultBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// Counter is a monotonically increasing uint64. The nil Counter is a
// no-op, so callers can hold instruments from a nil Registry.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket latency histogram: per-bucket atomic
// counters (non-cumulative internally, cumulative at exposition),
// an atomic observation count and an atomic float64-bits sum. Observe
// never takes a lock. The nil Histogram is a no-op.
type Histogram struct {
	bounds  []float64 // upper bounds, strictly increasing; +Inf implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// NewHistogram builds a standalone histogram (outside a registry) —
// mostly for tests; production code obtains histograms from a
// Registry. Nil or empty buckets select DefaultBuckets.
func NewHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefaultBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value. Bucket upper bounds are inclusive
// (Prometheus `le` semantics): a value equal to a bound lands in that
// bound's bucket.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v: with inclusive-le semantics that is v's bucket;
	// values above every bound land in the +Inf overflow slot.
	idx := sort.SearchFloat64s(h.bounds, v)
	h.buckets[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is a consistent-enough point-in-time view
// (buckets are read individually; under concurrent writes the view
// may straddle an Observe, which is the standard Prometheus trade).
type HistogramSnapshot struct {
	Bounds     []float64 // upper bounds (excluding +Inf)
	Cumulative []uint64  // cumulative counts per bound, then +Inf last
	Count      uint64
	Sum        float64
}

// Snapshot captures the histogram state with cumulative bucket
// counts, +Inf last.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds:     h.bounds,
		Cumulative: make([]uint64, len(h.buckets)),
		Count:      h.count.Load(),
		Sum:        math.Float64frombits(h.sumBits.Load()),
	}
	var run uint64
	for i := range h.buckets {
		run += h.buckets[i].Load()
		s.Cumulative[i] = run
	}
	return s
}

// Quantile estimates the q-th quantile (0 < q <= 1) from the bucket
// counts by linear interpolation within the holding bucket — the
// standard Prometheus histogram_quantile estimate. An empty snapshot
// returns 0. When the rank lands in the +Inf bucket the highest
// finite bound is returned (the estimate is a floor, which is the
// conservative direction for retry hints).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Cumulative) == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	idx := len(s.Cumulative) - 1
	for i, c := range s.Cumulative {
		if float64(c) >= rank {
			idx = i
			break
		}
	}
	if idx >= len(s.Bounds) {
		// +Inf bucket: no upper bound to interpolate toward.
		if len(s.Bounds) == 0 {
			return 0
		}
		return s.Bounds[len(s.Bounds)-1]
	}
	lo, loCount := 0.0, uint64(0)
	if idx > 0 {
		lo, loCount = s.Bounds[idx-1], s.Cumulative[idx-1]
	}
	hi := s.Bounds[idx]
	inBucket := s.Cumulative[idx] - loCount
	if inBucket == 0 {
		return hi
	}
	return lo + (hi-lo)*(rank-float64(loCount))/float64(inBucket)
}

// CounterVec is a counter family split by one label (e.g.
// proxy_requests_total by peer). Children are created on first use;
// the read path is a shared-lock map hit.
type CounterVec struct {
	mu sync.RWMutex
	m  map[string]*Counter
}

// With returns the child counter for the label value. The nil
// CounterVec hands out nil (no-op) counters.
func (v *CounterVec) With(label string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c, ok := v.m[label]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.m[label]; ok {
		return c
	}
	c = &Counter{}
	v.m[label] = c
	return c
}

// labels returns the known label values, sorted.
func (v *CounterVec) labels() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, 0, len(v.m))
	for k := range v.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// HistogramVec is a histogram family split by one label (e.g.
// compile_stage_duration_seconds by stage). Children are created on
// first use; the read path is a shared-lock map hit.
type HistogramVec struct {
	buckets []float64
	mu      sync.RWMutex
	m       map[string]*Histogram
}

// With returns the child histogram for the label value.
func (v *HistogramVec) With(label string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	h, ok := v.m[label]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.m[label]; ok {
		return h
	}
	h = NewHistogram(v.buckets)
	v.m[label] = h
	return h
}

// labels returns the known label values, sorted.
func (v *HistogramVec) labels() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, 0, len(v.m))
	for k := range v.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// registry -----------------------------------------------------------

// metric is one registered instrument (or callback).
type metric struct {
	name, help string
	typ        string            // "counter", "gauge" or "histogram"
	labels     map[string]string // constant labels
	// constLabels is labels rendered `{k="v",...}` ("" without labels);
	// name+constLabels is the registration and sort key.
	constLabels string
	labelKey    string // vec label name

	counter *Counter
	fn      func() float64
	hist    *Histogram
	vec     *HistogramVec
	cvec    *CounterVec
}

// series reads the instrument's current values: one series per vec
// child, in label order, else one.
func (m *metric) series() []Series {
	switch {
	case m.cvec != nil:
		labels := m.cvec.labels()
		out := make([]Series, len(labels))
		for i, l := range labels {
			out[i] = Series{Labels: map[string]string{m.labelKey: l}, Value: float64(m.cvec.With(l).Value())}
		}
		return out
	case m.vec != nil:
		labels := m.vec.labels()
		out := make([]Series, len(labels))
		for i, l := range labels {
			h := m.vec.With(l).Snapshot()
			out[i] = Series{Labels: map[string]string{m.labelKey: l}, Hist: &h}
		}
		return out
	case m.hist != nil:
		h := m.hist.Snapshot()
		return []Series{{Hist: &h}}
	case m.fn != nil:
		return []Series{{Labels: m.labels, Value: m.fn()}}
	default:
		return []Series{{Value: float64(m.counter.Value())}}
	}
}

// Registry holds named instruments and renders them as Prometheus
// text exposition or a JSON-able snapshot. Registration is idempotent
// by (name, constLabels): re-registering returns the existing
// instrument, so packages can lazily grab their metrics without
// coordinating construction order. All methods are nil-receiver safe
// — a nil *Registry hands out nil (no-op) instruments, which is how
// telemetry is disabled wholesale.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*metric
	order []*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*metric{}}
}

// register inserts or returns the existing metric under name+labels.
func (r *Registry) register(m *metric) *metric {
	m.constLabels = renderLabels(m.labels)
	key := m.name + m.constLabels
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byKey[key]; ok {
		return prev
	}
	r.byKey[key] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or fetches) a monotonic counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(&metric{name: name, help: help, typ: "counter", counter: &Counter{}})
	return m.counter
}

// GaugeFunc registers a gauge whose value is computed at exposition
// time — queue depth, cache bytes, goroutine count.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, typ: "gauge", fn: fn})
}

// CounterFunc registers a counter whose value lives elsewhere (e.g. a
// stats struct maintained by another package) and is read at
// exposition time.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, typ: "counter", fn: fn})
}

// CounterFuncLabeled registers a constant-labelled counter callback.
// Several registrations may share a name with distinct labels (e.g.
// store_peer_fetch_total{outcome="hit"|"miss"|"corrupt"}); the
// exposition emits one HELP/TYPE header for the family.
func (r *Registry) CounterFuncLabeled(name, help string, labels map[string]string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, typ: "counter", labels: maps.Clone(labels), fn: fn})
}

// CounterVec registers (or fetches) a one-label counter family.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	if r == nil {
		return nil
	}
	m := r.register(&metric{
		name: name, help: help, typ: "counter", labelKey: labelKey,
		cvec: &CounterVec{m: map[string]*Counter{}},
	})
	return m.cvec
}

// Info registers a constant-1 gauge carrying its payload in labels —
// the Prometheus build-info idiom.
func (r *Registry) Info(name, help string, labels map[string]string) {
	if r == nil {
		return
	}
	r.register(&metric{
		name: name, help: help, typ: "gauge", labels: maps.Clone(labels),
		fn: func() float64 { return 1 },
	})
}

// Histogram registers (or fetches) a fixed-bucket histogram. Nil
// buckets select DefaultBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	m := r.register(&metric{name: name, help: help, typ: "histogram", hist: NewHistogram(buckets)})
	return m.hist
}

// HistogramVec registers (or fetches) a one-label histogram family.
func (r *Registry) HistogramVec(name, help, labelKey string, buckets []float64) *HistogramVec {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefaultBuckets
	}
	m := r.register(&metric{
		name: name, help: help, typ: "histogram", labelKey: labelKey,
		vec: &HistogramVec{buckets: buckets, m: map[string]*Histogram{}},
	})
	return m.vec
}

// sorted returns the registered metrics ordered by name, then constant
// labels.
func (r *Registry) sorted() []*metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := slices.Clone(r.order)
	r.mu.Unlock()
	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].constLabels < ms[j].constLabels
	})
	return ms
}

// Families reads the live instruments into the exposition model: one
// family per name, sorted by name, whose help and type come from the
// first registration under that name.
func (r *Registry) Families() []Family {
	var fams []Family
	for _, m := range r.sorted() {
		if n := len(fams); n == 0 || fams[n-1].Name != m.name {
			fams = append(fams, Family{Name: m.name, Help: m.help, Type: m.typ})
		}
		f := &fams[len(fams)-1]
		f.Series = append(f.Series, m.series()...)
	}
	return fams
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4), metrics sorted by name for deterministic
// output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WritePrometheus(w, r.Families())
}

// Snapshot renders every instrument as a JSON-able map — the expvar
// half of the dual exposition. Counter instruments are uint64, gauges
// and callbacks float64; histograms become {count, sum, buckets:{"le"
// -> cumulative}}; vecs nest by label value.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	for _, m := range r.sorted() {
		var vec map[string]any
		if m.labelKey != "" {
			vec = map[string]any{}
			out[m.name] = vec
		}
		for _, s := range m.series() {
			var v any = s.Value
			switch {
			case s.Hist != nil:
				v = histJSON(*s.Hist)
			case m.counter != nil || m.cvec != nil:
				v = uint64(s.Value)
			}
			if vec != nil {
				vec[s.Labels[m.labelKey]] = v
			} else {
				out[m.name+m.constLabels] = v
			}
		}
	}
	return out
}

// exposition ---------------------------------------------------------

// Family is one metric family in the model every exposition shares:
// Registry.Families reads the live instruments into it,
// ParsePrometheus decodes a scrape into it, MergeFleet merges scrapes
// into it, and WritePrometheus and FleetSnapshot render it.
type Family struct {
	Name string
	Help string
	// Type is "counter", "gauge" or "histogram"; a parsed family whose
	// exposition declared no type is "untyped".
	Type   string
	Series []Series
}

// Series is one labelled series of a family: Value for a counter or a
// gauge, Hist for a histogram (whose labels exclude le).
type Series struct {
	Labels map[string]string
	Value  float64
	Hist   *HistogramSnapshot
}

// WritePrometheus renders families as text exposition format 0.0.4 in
// the order given: a HELP line when the family has help, its TYPE
// line, then each series. Counter values print as integers and gauges
// in the shortest round-trip form; a histogram series prints its
// cumulative _bucket lines, le after its other labels, then _sum and
// _count.
func WritePrometheus(w io.Writer, fams []Family) error {
	var b strings.Builder
	for _, f := range fams {
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, sanitizeHelp(f.Help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Series {
			labels := renderLabels(s.Labels)
			switch h := s.Hist; {
			case h != nil:
				le := "{"
				if labels != "" {
					le = labels[:len(labels)-1] + ","
				}
				for i, bound := range h.Bounds {
					fmt.Fprintf(&b, "%s_bucket%sle=\"%s\"} %d\n", f.Name, le, formatFloat(bound), h.Cumulative[i])
				}
				inf := uint64(0)
				if n := len(h.Cumulative); n > 0 {
					inf = h.Cumulative[n-1]
				}
				fmt.Fprintf(&b, "%s_bucket%sle=\"+Inf\"} %d\n", f.Name, le, inf)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.Name, labels, formatFloat(h.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.Name, labels, h.Count)
			case f.Type == "counter":
				fmt.Fprintf(&b, "%s%s %d\n", f.Name, labels, uint64(s.Value))
			default:
				fmt.Fprintf(&b, "%s%s %s\n", f.Name, labels, formatFloat(s.Value))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func histJSON(s HistogramSnapshot) map[string]any {
	buckets := map[string]uint64{}
	for i, bound := range s.Bounds {
		buckets[formatFloat(bound)] = s.Cumulative[i]
	}
	if n := len(s.Cumulative); n > 0 {
		buckets["+Inf"] = s.Cumulative[n-1]
	}
	return map[string]any{"count": s.Count, "sum": s.Sum, "buckets": buckets}
}

// formatFloat renders v in the shortest round-trip form.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// renderLabels renders a sorted, escaped `{k="v",...}` block.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the exposition-format label escapes.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// sanitizeHelp keeps HELP lines single-line.
func sanitizeHelp(h string) string { return strings.ReplaceAll(h, "\n", " ") }
