package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// shardRegistry builds a synthetic shard exposition: one counter, one
// gauge, one labeled counter and one latency histogram, all populated
// deterministically from a small seed.
func shardRegistry(t *testing.T, jobs uint64, queueDepth float64, latencies []time.Duration) *Registry {
	t.Helper()
	r := NewRegistry()
	c := r.Counter("jobs_completed_total", "compile jobs finished")
	c.Add(jobs)
	r.Gauge("queue_depth", "queued jobs right now").Set(queueDepth)
	cv := r.CounterVec("http_requests_total", "requests by code", "code")
	cv.With("200").Add(jobs)
	cv.With("429").Add(jobs / 2)
	h := r.Histogram("compile_seconds", "compile latency", []float64{0.1, 1, 10})
	for _, d := range latencies {
		h.ObserveDuration(d)
	}
	return r
}

// scrapeOf renders a registry's Prometheus text and parses it back —
// the same round trip the gateway's fleet scrape performs.
func scrapeOf(t *testing.T, node string, r *Registry) FleetScrape {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("parsing %s exposition: %v", node, err)
	}
	return FleetScrape{Node: node, Families: fams}
}

// TestParsePrometheusRoundTrip: the parser recovers every family the
// registry wrote, with types, labels and histogram components folded.
func TestParsePrometheusRoundTrip(t *testing.T) {
	r := shardRegistry(t, 10, 3, []time.Duration{50 * time.Millisecond, 2 * time.Second})
	sc := scrapeOf(t, "n1", r)
	byName := map[string]Family{}
	for _, f := range sc.Families {
		byName[f.Name] = f
	}
	if f := byName["jobs_completed_total"]; f.Type != "counter" || len(f.Series) != 1 || f.Series[0].Value != 10 {
		t.Fatalf("counter family: %+v", f)
	}
	if f := byName["queue_depth"]; f.Type != "gauge" || f.Series[0].Value != 3 {
		t.Fatalf("gauge family: %+v", f)
	}
	reqs := byName["http_requests_total"]
	codes := map[string]float64{}
	for _, s := range reqs.Series {
		codes[s.Labels["code"]] = s.Value
	}
	if codes["200"] != 10 || codes["429"] != 5 {
		t.Fatalf("labeled counter samples: %v", codes)
	}
	hist := byName["compile_seconds"]
	if hist.Type != "histogram" {
		t.Fatalf("histogram family type %q", hist.Type)
	}
	if len(hist.Series) != 1 || hist.Series[0].Hist.Count != 2 {
		t.Fatalf("reassembled histogram: %+v", hist.Series)
	}
	// 50ms lands in le=0.1; 2s lands in le=10.
	if h := hist.Series[0].Hist; h.Cumulative[0] != 1 || h.Cumulative[2] != 2 {
		t.Fatalf("bucket counts: %+v", h)
	}
}

// TestParsePrometheusRejectsGarbage: malformed sample lines fail the
// parse instead of silently mis-merging.
func TestParsePrometheusRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"jobs_total not-a-number\n",
		"jobs_total{code=\"200\" 5\n", // unterminated label block
		"jobs{bad} 1\n",
	} {
		if _, err := ParsePrometheus(strings.NewReader(in)); err == nil {
			t.Errorf("ParsePrometheus(%q) accepted", in)
		}
	}
}

// TestMergeFleetCounterSums: the fleet counter is exactly the sum of
// the individual shard scrapes, per label set.
func TestMergeFleetCounterSums(t *testing.T) {
	s1 := scrapeOf(t, "http://a", shardRegistry(t, 10, 1, nil))
	s2 := scrapeOf(t, "http://b", shardRegistry(t, 32, 2, nil))
	m := MergeFleet([]FleetScrape{s1, s2})
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, m); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"jobs_completed_total 42\n",
		`http_requests_total{code="200"} 42` + "\n",
		`http_requests_total{code="429"} 21` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged exposition missing %q:\n%s", want, out)
		}
	}
}

// TestMergeFleetGaugeNodes: gauges are not summed — each node keeps
// its own series distinguished by the added node label.
func TestMergeFleetGaugeNodes(t *testing.T) {
	s1 := scrapeOf(t, "http://a", shardRegistry(t, 1, 3, nil))
	s2 := scrapeOf(t, "http://b", shardRegistry(t, 1, 7, nil))
	m := MergeFleet([]FleetScrape{s1, s2})
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, m); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `queue_depth{node="http://a"} 3`) ||
		!strings.Contains(out, `queue_depth{node="http://b"} 7`) {
		t.Fatalf("gauge node labeling missing:\n%s", out)
	}
	if strings.Contains(out, "queue_depth 10") {
		t.Fatalf("gauges were summed:\n%s", out)
	}
}

// TestMergeFleetGolden: merged output of two settled synthetic shards
// is deterministic down to the byte, so the fleet exposition is
// golden-testable — and a repeat merge is byte-identical.
func TestMergeFleetGolden(t *testing.T) {
	mk := func() []FleetScrape {
		return []FleetScrape{
			scrapeOf(t, "http://a", shardRegistry(t, 3, 1, []time.Duration{50 * time.Millisecond})),
			scrapeOf(t, "http://b", shardRegistry(t, 4, 2, []time.Duration{5 * time.Second})),
		}
	}
	var b1, b2 bytes.Buffer
	if err := WritePrometheus(&b1, MergeFleet(mk())); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b2, MergeFleet(mk())); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("merge not deterministic:\n--- first\n%s\n--- second\n%s", b1.String(), b2.String())
	}
	want := strings.Join([]string{
		"# HELP compile_seconds compile latency",
		"# TYPE compile_seconds histogram",
		`compile_seconds_bucket{le="0.1"} 1`,
		`compile_seconds_bucket{le="1"} 1`,
		`compile_seconds_bucket{le="10"} 2`,
		`compile_seconds_bucket{le="+Inf"} 2`,
		"compile_seconds_sum 5.05",
		"compile_seconds_count 2",
		"# HELP http_requests_total requests by code",
		"# TYPE http_requests_total counter",
		`http_requests_total{code="200"} 7`,
		`http_requests_total{code="429"} 3`,
		"# HELP jobs_completed_total compile jobs finished",
		"# TYPE jobs_completed_total counter",
		"jobs_completed_total 7",
		"# HELP queue_depth queued jobs right now",
		"# TYPE queue_depth gauge",
		`queue_depth{node="http://a"} 1`,
		`queue_depth{node="http://b"} 2`,
		"",
	}, "\n")
	if b1.String() != want {
		t.Fatalf("golden mismatch:\n--- got\n%s\n--- want\n%s", b1.String(), want)
	}
}

// TestMergeFleetLabelledHistogramGolden pins a labelled histogram in
// the fleet exposition: per-label series summed across shards, sorted
// by label, with le after the family's own label on every bucket line
// (the order the daemon's exposition uses).
func TestMergeFleetLabelledHistogramGolden(t *testing.T) {
	shard := func(obs map[string][]float64) *Registry {
		r := NewRegistry()
		hv := r.HistogramVec("stage_seconds", "stage latency", "stage", []float64{0.1, 1})
		for stage, vs := range obs {
			for _, v := range vs {
				hv.With(stage).Observe(v)
			}
		}
		return r
	}
	fams := MergeFleet([]FleetScrape{
		scrapeOf(t, "http://a", shard(map[string][]float64{"decode": {0.25}, "tlb": {0.5}})),
		scrapeOf(t, "http://b", shard(map[string][]float64{"decode": {2}, "refine": {0.0625}})),
	})
	var b bytes.Buffer
	if err := WritePrometheus(&b, fams); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP stage_seconds stage latency",
		"# TYPE stage_seconds histogram",
		`stage_seconds_bucket{stage="decode",le="0.1"} 0`,
		`stage_seconds_bucket{stage="decode",le="1"} 1`,
		`stage_seconds_bucket{stage="decode",le="+Inf"} 2`,
		`stage_seconds_sum{stage="decode"} 2.25`,
		`stage_seconds_count{stage="decode"} 2`,
		`stage_seconds_bucket{stage="refine",le="0.1"} 1`,
		`stage_seconds_bucket{stage="refine",le="1"} 1`,
		`stage_seconds_bucket{stage="refine",le="+Inf"} 1`,
		`stage_seconds_sum{stage="refine"} 0.0625`,
		`stage_seconds_count{stage="refine"} 1`,
		`stage_seconds_bucket{stage="tlb",le="0.1"} 0`,
		`stage_seconds_bucket{stage="tlb",le="1"} 1`,
		`stage_seconds_bucket{stage="tlb",le="+Inf"} 1`,
		`stage_seconds_sum{stage="tlb"} 0.5`,
		`stage_seconds_count{stage="tlb"} 1`,
		"",
	}, "\n")
	if b.String() != want {
		t.Fatalf("golden mismatch:\n--- got\n%s\n--- want\n%s", b.String(), want)
	}
}

// TestMergeFleetSnapshot: the expvar half mirrors the text exposition
// — counters fleet-summed, gauges nested per node, histograms in the
// {count, sum, buckets} shape.
func TestMergeFleetSnapshot(t *testing.T) {
	s1 := scrapeOf(t, "http://a", shardRegistry(t, 10, 1, []time.Duration{time.Second}))
	s2 := scrapeOf(t, "http://b", shardRegistry(t, 5, 2, nil))
	snap := FleetSnapshot(MergeFleet([]FleetScrape{s1, s2}))
	if got := snap["jobs_completed_total"]; got != float64(15) {
		t.Fatalf("counter sum = %v", got)
	}
	g, ok := snap["queue_depth"].(map[string]any)
	if !ok || g["node=http://a"] != float64(1) || g["node=http://b"] != float64(2) {
		t.Fatalf("gauge nesting: %v", snap["queue_depth"])
	}
	h, ok := snap["compile_seconds"].(map[string]any)
	if !ok || h["count"] != uint64(1) {
		t.Fatalf("histogram snapshot: %v", snap["compile_seconds"])
	}
}

// TestMergedHistogramQuantiles: quantiles of the fleet-merged
// histogram reflect the combined distribution — the gateway's
// ?scope=fleet summary math.
func TestMergedHistogramQuantiles(t *testing.T) {
	// Shard a: 10 fast compiles (le=0.1). Shard b: 10 slow (le=10).
	fast := make([]time.Duration, 10)
	slow := make([]time.Duration, 10)
	for i := range fast {
		fast[i] = 50 * time.Millisecond
		slow[i] = 5 * time.Second
	}
	ha := shardRegistry(t, 1, 0, fast)
	hb := shardRegistry(t, 1, 0, slow)
	var sa, sb HistogramSnapshot
	for _, f := range scrapeOf(t, "a", ha).Families {
		if f.Name == "compile_seconds" {
			sa = *f.Series[0].Hist
		}
	}
	for _, f := range scrapeOf(t, "b", hb).Families {
		if f.Name == "compile_seconds" {
			sb = *f.Series[0].Hist
		}
	}
	merged, err := MergeHistograms(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Count != 20 {
		t.Fatalf("merged count %d", merged.Count)
	}
	// Half the mass is fast, half slow: p25 sits in the fast bucket,
	// p75 in the slow one.
	if p25 := merged.Quantile(0.25); p25 > 0.1 {
		t.Fatalf("p25 = %v, want within fast bucket (0, 0.1]", p25)
	}
	if p75 := merged.Quantile(0.75); p75 <= 1 || p75 > 10 {
		t.Fatalf("p75 = %v, want within slow bucket (1, 10]", p75)
	}
}

// TestMergeHistogramsMismatch: differing bucket bounds are rejected;
// empty snapshots are skipped rather than blocking the merge.
func TestMergeHistogramsMismatch(t *testing.T) {
	b := NewRegistry().Histogram("h", "", []float64{1, 5})
	b.Observe(1.5)
	a2 := NewRegistry().Histogram("h", "", []float64{1, 2})
	a2.Observe(0.5)
	if _, err := MergeHistograms(a2.Snapshot(), b.Snapshot()); err == nil {
		t.Fatal("mismatched bounds merged")
	}
	var empty HistogramSnapshot // a node without the family: skipped
	merged, err := MergeHistograms(empty, b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if merged.Count != 1 {
		t.Fatalf("merged count %d, want 1", merged.Count)
	}
}
