package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketEdges pins the inclusive-le contract: a value
// exactly on a bucket bound lands in that bound's bucket (Prometheus
// `le` semantics), values above every bound land in +Inf.
func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	h.Observe(0.1) // == first bound -> bucket 0
	h.Observe(0.05)
	h.Observe(1)    // == second bound -> bucket 1
	h.Observe(10)   // == last bound -> bucket 2
	h.Observe(10.1) // above every bound -> +Inf
	h.Observe(1e9)

	s := h.Snapshot()
	if got, want := s.Count, uint64(6); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	// Cumulative: le=0.1 -> 2, le=1 -> 3, le=10 -> 4, +Inf -> 6.
	wantCum := []uint64{2, 3, 4, 6}
	for i, want := range wantCum {
		if s.Cumulative[i] != want {
			t.Errorf("cumulative[%d] = %d, want %d (%v)", i, s.Cumulative[i], want, s.Cumulative)
		}
	}
	wantSum := 0.1 + 0.05 + 1 + 10 + 10.1 + 1e9
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
}

// TestHistogramConcurrent hammers Observe from many goroutines; run
// under -race this proves the lock-free path is clean, and the final
// count/sum must be exact.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if got, want := s.Count, uint64(workers*perWorker); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	if want := float64(workers*perWorker) * 0.001; math.Abs(s.Sum-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
}

// TestWritePrometheusGolden pins the text exposition byte-for-byte: a
// scrape-format regression (spacing, ordering, label escaping, bucket
// cumulation) breaks dashboards silently, so the rendering is frozen.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("widgets_total", "Widgets made.")
	c.Add(3)
	r.GaugeFunc("temperature_celsius", "Current temperature.", func() float64 { return 21.5 })
	r.Info("build_info", "Build metadata.", map[string]string{"version": `v1.0"beta`})
	h := r.Histogram("latency_seconds", "Operation latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	v := r.HistogramVec("stage_seconds", "Per-stage latency.", "stage", []float64{1})
	v.With("compile").Observe(0.5)
	v.With("analysis").Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP build_info Build metadata.
# TYPE build_info gauge
build_info{version="v1.0\"beta"} 1
# HELP latency_seconds Operation latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1"} 1
latency_seconds_bucket{le="1"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 5.55
latency_seconds_count 3
# HELP stage_seconds Per-stage latency.
# TYPE stage_seconds histogram
stage_seconds_bucket{stage="analysis",le="1"} 0
stage_seconds_bucket{stage="analysis",le="+Inf"} 1
stage_seconds_sum{stage="analysis"} 2
stage_seconds_count{stage="analysis"} 1
stage_seconds_bucket{stage="compile",le="1"} 1
stage_seconds_bucket{stage="compile",le="+Inf"} 1
stage_seconds_sum{stage="compile"} 0.5
stage_seconds_count{stage="compile"} 1
# HELP temperature_celsius Current temperature.
# TYPE temperature_celsius gauge
temperature_celsius 21.5
# HELP widgets_total Widgets made.
# TYPE widgets_total counter
widgets_total 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRegistryExpositionGolden pins, byte for byte, the exposition of
// a registry holding one instrument of each kind: counter, gauge, both
// callbacks, a labelled callback family, both vecs, info and a
// histogram. A counter callback of 1e6 or more prints as an integer,
// like every other counter value.
func TestRegistryExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "Jobs finished.").Add(7)
	r.GaugeFunc("queue_depth", "Jobs waiting.", func() float64 { return 2.5 })
	r.GaugeFunc("uptime_seconds", "Seconds since start.", func() float64 { return 12.25 })
	r.CounterFunc("store_hits_total", "Store hits.", func() float64 { return 41 })
	r.CounterFuncLabeled("peer_fetch_total", "Peer fetches, by outcome.", map[string]string{"outcome": "miss"}, func() float64 { return 3 })
	r.CounterFuncLabeled("peer_fetch_total", "Peer fetches, by outcome.", map[string]string{"outcome": "hit"}, func() float64 { return 9 })
	cv := r.CounterVec("http_requests_total", "Requests, by status.", "status")
	cv.With("200").Add(5)
	cv.With("429").Inc()
	r.Info("build_info", "Build metadata.", map[string]string{"go": "go1.24", "path": `a\b"c`})
	h := r.Histogram("latency_seconds", "Request latency.", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.2)
	v := r.HistogramVec("stage_seconds", "Per-stage latency.", "stage", []float64{0.5})
	v.With("macros").Observe(0.25)
	v.With("floorplan").Observe(1.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP build_info Build metadata.
# TYPE build_info gauge
build_info{go="go1.24",path="a\\b\"c"} 1
# HELP http_requests_total Requests, by status.
# TYPE http_requests_total counter
http_requests_total{status="200"} 5
http_requests_total{status="429"} 1
# HELP jobs_total Jobs finished.
# TYPE jobs_total counter
jobs_total 7
# HELP latency_seconds Request latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.01"} 1
latency_seconds_bucket{le="0.1"} 1
latency_seconds_bucket{le="+Inf"} 2
latency_seconds_sum 0.20500000000000002
latency_seconds_count 2
# HELP peer_fetch_total Peer fetches, by outcome.
# TYPE peer_fetch_total counter
peer_fetch_total{outcome="hit"} 9
peer_fetch_total{outcome="miss"} 3
# HELP queue_depth Jobs waiting.
# TYPE queue_depth gauge
queue_depth 2.5
# HELP stage_seconds Per-stage latency.
# TYPE stage_seconds histogram
stage_seconds_bucket{stage="floorplan",le="0.5"} 0
stage_seconds_bucket{stage="floorplan",le="+Inf"} 1
stage_seconds_sum{stage="floorplan"} 1.5
stage_seconds_count{stage="floorplan"} 1
stage_seconds_bucket{stage="macros",le="0.5"} 1
stage_seconds_bucket{stage="macros",le="+Inf"} 1
stage_seconds_sum{stage="macros"} 0.25
stage_seconds_count{stage="macros"} 1
# HELP store_hits_total Store hits.
# TYPE store_hits_total counter
store_hits_total 41
# HELP uptime_seconds Seconds since start.
# TYPE uptime_seconds gauge
uptime_seconds 12.25
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	big := NewRegistry()
	big.CounterFunc("bytes_total", "Bytes written.", func() float64 { return 2e6 })
	b.Reset()
	if err := big.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\nbytes_total 2000000\n") {
		t.Errorf("counter callback not printed as an integer:\n%s", b.String())
	}
}

// TestRegistryIdempotent: re-registering a name returns the same
// instrument, so packages can lazily grab metrics in any order.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "first")
	b := r.Counter("x_total", "second")
	if a != b {
		t.Fatal("re-registration minted a second counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("instruments not shared")
	}
	if h1, h2 := r.Histogram("h", "", nil), r.Histogram("h", "", nil); h1 != h2 {
		t.Fatal("re-registration minted a second histogram")
	}
}

// TestNilRegistryIsNoop: a nil *Registry hands out nil instruments
// whose every method is a no-op — the telemetry off-switch.
func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Fatal("nil counter counted")
	}
	r.GaugeFunc("b", "", func() float64 { return 3 })
	h := r.Histogram("c", "", nil)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Snapshot().Count != 0 {
		t.Fatal("nil histogram observed")
	}
	v := r.HistogramVec("d", "", "k", nil)
	v.With("x").Observe(1)
	r.GaugeFunc("e", "", func() float64 { return 1 })
	r.CounterFunc("f", "", func() float64 { return 1 })
	r.Info("g", "", nil)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot non-empty")
	}
}

// TestSnapshotJSONShape: the expvar half of the dual exposition nests
// histograms as {count, sum, buckets} and vecs by label.
func TestSnapshotJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("n_total", "").Add(2)
	r.Histogram("lat", "", []float64{1}).Observe(0.5)
	r.HistogramVec("st", "", "stage", []float64{1}).With("compile").Observe(0.25)
	snap := r.Snapshot()
	if got := snap["n_total"].(uint64); got != 2 {
		t.Fatalf("counter snapshot = %v", got)
	}
	hist := snap["lat"].(map[string]any)
	if hist["count"].(uint64) != 1 {
		t.Fatalf("hist count = %v", hist["count"])
	}
	buckets := hist["buckets"].(map[string]uint64)
	if buckets["1"] != 1 || buckets["+Inf"] != 1 {
		t.Fatalf("hist buckets = %v", buckets)
	}
	fam := snap["st"].(map[string]any)
	if _, ok := fam["compile"]; !ok {
		t.Fatalf("vec snapshot missing label: %v", fam)
	}
}
