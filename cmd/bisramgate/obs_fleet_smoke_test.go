package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// TestObsFleetSmoke is the fleet-observability drill behind `make
// obs-fleet-smoke`: a gateway over two federated shards must produce
//
//  1. one merged Chrome trace for a routed compile, with spans from
//     both processes and the shard's compile spans parented under the
//     gateway's proxy.route span;
//  2. an SSE watcher that sees every sweep point exactly once and a
//     terminal summary consistent with the results document;
//  3. a fleet metrics scrape whose counters equal the sum of the
//     individual shard scrapes — and which still answers after one
//     shard is killed.
func TestObsFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("obs fleet smoke builds and runs two daemons and a gateway")
	}

	dir := t.TempDir()
	shardBin := filepath.Join(dir, "bisramgend")
	gateBin := filepath.Join(dir, "bisramgate")
	for bin, pkg := range map[string]string{shardBin: "repro/cmd/bisramgend", gateBin: "repro/cmd/bisramgate"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		build.Env = os.Environ()
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	addrs := []string{freeAddr(t), freeAddr(t)}
	urls := make([]string, len(addrs))
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	peers := strings.Join(urls, ",")
	shards := make([]*proc, len(addrs))
	for i, a := range addrs {
		shards[i] = startProc(t, shardBin,
			"-addr", a, "-workers", "2", "-quiet",
			"-store-dir", filepath.Join(dir, "store-"+a),
			"-peers", peers, "-self", urls[i], "-probe-interval", "500ms")
	}
	for _, u := range urls {
		waitHealthy(t, u, nil)
	}
	gwAddr := freeAddr(t)
	gw := startProc(t, gateBin,
		"-addr", gwAddr, "-shards", peers, "-probe-interval", "300ms")
	gwBase := "http://" + gwAddr
	waitHealthy(t, gwBase, gw.exited)

	// --- 1. Cross-node trace: one compile, one merged trace tree. ---
	job := postCompile(t, gwBase, smokeReq)
	if job.JobID == "" {
		t.Fatalf("routed compile returned no job id: %+v", job)
	}
	assertMergedTrace(t, gwBase, job.JobID)

	// --- 2. SSE progress: every point exactly once, summary vs results. ---
	watchSweepOverSSE(t, gwBase)

	// --- 3. Fleet scrape: counters sum across shards. ---
	fleet := parseProm(t, getRaw(t, gwBase+"/metrics?scope=fleet&format=prometheus"))
	shardProm := make([][]obs.Family, len(urls))
	for i, u := range urls {
		shardProm[i] = parseProm(t, getRaw(t, u+"/metrics?format=prometheus"))
	}
	// jobs_completed_total goes last: the kill drill below reuses its
	// per-shard values.
	perShard := make([]float64, len(urls))
	var want float64
	for _, name := range []string{"store_misses_total", "jobs_completed_total"} {
		want = 0
		for i := range urls {
			perShard[i] = counterValue(t, shardProm[i], name)
			want += perShard[i]
		}
		if want == 0 {
			t.Fatalf("no shard moved %s; the sum check would be vacuous", name)
		}
		if got := counterValue(t, fleet, name); got != want {
			t.Fatalf("fleet %s = %v, shard sum = %v", name, got, want)
		}
	}
	// Gauges stay per node, tagged with the shard URL.
	prom := string(getRaw(t, gwBase+"/metrics?scope=fleet&format=prometheus"))
	for _, u := range urls {
		if !strings.Contains(prom, `node="`+u+`"`) {
			t.Fatalf("fleet exposition missing node label for %s:\n%s", u, prom)
		}
	}

	// --- Kill one shard: the scrape degrades, it does not die. ---
	// Ring placement depends on the run's random ports, so either shard
	// may have done all the work; kill the one that completed fewer
	// jobs so the survivor always has nonzero counters to assert on.
	victim := 1
	if perShard[1] > perShard[0] {
		victim = 0
	}
	shards[victim].kill(t)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var doc struct {
			Scope        string `json:"scope"`
			ScrapeErrors int    `json:"scrape_errors"`
		}
		getJSON(t, gwBase+"/metrics?scope=fleet", &doc)
		if doc.Scope != "fleet" {
			t.Fatalf("fleet scrape lost its shape: %+v", doc)
		}
		if doc.ScrapeErrors >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed shard never surfaced as a scrape error: %+v", doc)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// The surviving shard's counters still merge.
	alive := parseProm(t, getRaw(t, gwBase+"/metrics?scope=fleet&format=prometheus"))
	survivor := want - perShard[victim]
	if got := counterValue(t, alive, "jobs_completed_total"); got <= 0 || got != survivor {
		t.Fatalf("post-kill fleet scrape lost the survivor's counters: got %v, want %v", got, survivor)
	}
}

// assertMergedTrace fetches the gateway's merged trace for a routed
// job and requires spans from both processes with the shard's root
// spans parented under the gateway's proxy.route span.
func assertMergedTrace(t *testing.T, gwBase, jobID string) {
	t.Helper()
	raw := getRaw(t, gwBase+"/v1/debug/traces/"+jobID)
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v\n%s", err, raw)
	}
	procs := map[int]string{}
	var gwPid int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.Pid] = ev.Args["name"]
			if ev.Args["name"] == "gateway" {
				gwPid = ev.Pid
			}
		}
	}
	if len(procs) < 2 {
		t.Fatalf("merged trace names %d process(es), want >= 2: %v\n%s", len(procs), procs, raw)
	}
	if gwPid == 0 {
		t.Fatalf("merged trace has no gateway process: %v", procs)
	}
	var routeSpan string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "proxy.route" && ev.Pid == gwPid {
			routeSpan = ev.Args["span_id"]
		}
	}
	if routeSpan == "" {
		t.Fatalf("merged trace has no gateway proxy.route span:\n%s", raw)
	}
	spliced := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Pid != gwPid && ev.Args["parent_id"] == routeSpan {
			spliced++
		}
	}
	if spliced == 0 {
		t.Fatalf("no shard span parented under proxy.route (span %s):\n%s", routeSpan, raw)
	}
}

// watchSweepOverSSE creates a cluster sweep and follows its event
// stream live, then checks exactly-once point delivery and that the
// terminal summary counts agree with the results document.
func watchSweepOverSSE(t *testing.T, gwBase string) {
	t.Helper()
	resp, err := http.Post(gwBase+"/v1/sweeps", "application/json", strings.NewReader(smokeSweep))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Sweep struct {
			ID    string `json:"id"`
			Total int    `json:"total"`
		} `json:"sweep"`
	}
	if derr := json.NewDecoder(resp.Body).Decode(&env); derr != nil {
		t.Fatal(derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || env.Sweep.ID == "" {
		t.Fatalf("sweep create: status %d, id %q", resp.StatusCode, env.Sweep.ID)
	}

	terminals := map[int]int{}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	c := sweep.NewClient(gwBase)
	term, err := c.Watch(ctx, env.Sweep.ID, func(ev sweep.Event) {
		if ev.Seq > 0 && ev.Point != nil && ev.Point.Status != "started" {
			terminals[ev.Point.Index]++
		}
	})
	if err != nil {
		t.Fatalf("watching cluster sweep: %v", err)
	}
	if term.Summary == nil || !term.Summary.Terminal {
		t.Fatalf("watch ended without a terminal summary: %+v", term)
	}
	if len(terminals) != env.Sweep.Total {
		t.Fatalf("watcher saw %d points, sweep has %d", len(terminals), env.Sweep.Total)
	}
	for idx, n := range terminals {
		if n != 1 {
			t.Fatalf("point %d delivered %d terminal frames, want exactly 1", idx, n)
		}
	}

	// Terminal summary counts must agree with the results document
	// (rows cover successful points only; total and failed are global).
	var res struct {
		Data struct {
			Total  int `json:"total"`
			Failed int `json:"failed"`
			Rows   []struct {
				Cached bool `json:"cached"`
			} `json:"rows"`
			Complete bool `json:"complete"`
		} `json:"data"`
	}
	getJSON(t, gwBase+"/v1/sweeps/"+env.Sweep.ID+"/results", &res)
	if res.Data.Total != term.Summary.Total || res.Data.Failed != term.Summary.Failed {
		t.Fatalf("results total/failed = %d/%d, terminal summary = %d/%d",
			res.Data.Total, res.Data.Failed, term.Summary.Total, term.Summary.Failed)
	}
	if len(res.Data.Rows) != term.Summary.Done {
		t.Fatalf("results carry %d rows, terminal summary done %d", len(res.Data.Rows), term.Summary.Done)
	}
	cached := 0
	for _, row := range res.Data.Rows {
		if row.Cached {
			cached++
		}
	}
	if cached != term.Summary.Cached {
		t.Fatalf("summary cached = %d, results cached rows = %d", term.Summary.Cached, cached)
	}
	if res.Data.Complete != (term.Summary.State == "done") {
		t.Fatalf("summary state %q vs results complete %v", term.Summary.State, res.Data.Complete)
	}
}

// parseProm parses a Prometheus text exposition.
func parseProm(t *testing.T, raw []byte) []obs.Family {
	t.Helper()
	fams, err := obs.ParsePrometheus(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("parsing exposition: %v\n%s", err, raw)
	}
	return fams
}

// counterValue sums a counter family's unlabeled samples.
func counterValue(t *testing.T, fams []obs.Family, name string) float64 {
	t.Helper()
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		var v float64
		for _, s := range f.Series {
			v += s.Value
		}
		return v
	}
	t.Fatalf("family %s missing (have %s)", name, fmt.Sprint(len(fams)))
	return 0
}
