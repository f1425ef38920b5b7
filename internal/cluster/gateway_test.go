package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/chaos"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/sweep"
)

const (
	gwReq   = `{"words":256,"bpw":8,"bpc":4,"spares":4}`
	gwSweep = `{"base":{"words":256,"bpw":8,"bpc":4,"spares":4},"axes":{"spares":[0,4],"defects":[0,5]}}`
)

// testShard is one real daemon (server + queue + cache + store) on a
// test listener.
type testShard struct {
	ts *httptest.Server
	st *store.Store
	q  *jobs.Queue
}

func startShard(t *testing.T) *testShard {
	t.Helper()
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	q := jobs.New(jobs.Config{Workers: 2, Deadline: time.Minute})
	s := server.New(server.Config{Queue: q, Cache: cache.New(64 << 20), Store: st})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		q.Shutdown(ctx)
	})
	return &testShard{ts: ts, st: st, q: q}
}

// startFleet brings up n shards plus a gateway over them.
func startFleet(t *testing.T, n int) ([]*testShard, *Gateway, *Table, *httptest.Server) {
	t.Helper()
	shards := make([]*testShard, n)
	urls := make([]string, n)
	for i := range shards {
		shards[i] = startShard(t)
		urls[i] = shards[i].ts.URL
	}
	r, err := NewRing(urls, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(r)
	q := jobs.New(jobs.Config{Workers: 4, Deadline: time.Minute})
	g, err := NewGateway(GatewayConfig{Table: tab, Queue: q})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		q.Shutdown(ctx)
	})
	return shards, g, tab, ts
}

// httpDo is a bare exchange returning status, header and body.
func httpDo(t *testing.T, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// compileVia POSTs gwReq to base and returns the decoded job member.
func compileVia(t *testing.T, base string) map[string]any {
	t.Helper()
	status, _, raw := httpDo(t, http.MethodPost, base+"/v1/compile", gwReq)
	if status != http.StatusOK {
		t.Fatalf("compile %d: %s", status, raw)
	}
	var env struct {
		Job map[string]any `json:"job"`
	}
	if err := json.Unmarshal(raw, &env); err != nil || env.Job == nil {
		t.Fatalf("compile envelope: %v\n%s", err, raw)
	}
	return env.Job
}

// runSweepVia creates a sweep at base, waits for the terminal state
// and returns the verbatim results document bytes.
func runSweepVia(t *testing.T, base string) (string, []byte) {
	t.Helper()
	status, _, raw := httpDo(t, http.MethodPost, base+"/v1/sweeps", gwSweep)
	if status != http.StatusAccepted {
		t.Fatalf("sweep create %d: %s", status, raw)
	}
	var env struct {
		Sweep struct {
			ID string `json:"id"`
		} `json:"sweep"`
	}
	if err := json.Unmarshal(raw, &env); err != nil || env.Sweep.ID == "" {
		t.Fatalf("sweep envelope: %v\n%s", err, raw)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, _, body := httpDo(t, http.MethodGet, base+"/v1/sweeps/"+env.Sweep.ID, "")
		if st != http.StatusOK {
			t.Fatalf("sweep status %d: %s", st, body)
		}
		var sEnv struct {
			Sweep struct {
				State string `json:"state"`
			} `json:"sweep"`
		}
		if err := json.Unmarshal(body, &sEnv); err != nil {
			t.Fatal(err)
		}
		if sEnv.Sweep.State == "done" {
			break
		}
		if sEnv.Sweep.State == "failed" {
			t.Fatalf("sweep failed: %s", body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s never finished: %s", env.Sweep.ID, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	st, _, results := httpDo(t, http.MethodGet, base+"/v1/sweeps/"+env.Sweep.ID+"/results", "")
	if st != http.StatusOK {
		t.Fatalf("sweep results %d: %s", st, results)
	}
	return env.Sweep.ID, results
}

// TestGatewayCompileAndReadsMatchSingleDaemon: a compile routed
// through the gateway lands on the key's owner, produces the same key
// and byte-identical artifact as a standalone daemon, and the
// job/artifact/object read paths all resolve through the gateway
// (HEAD included).
func TestGatewayCompileAndReadsMatchSingleDaemon(t *testing.T) {
	single := startShard(t)
	refJob := compileVia(t, single.ts.URL)
	refKey, _ := refJob["key"].(string)
	refID, _ := refJob["job_id"].(string)
	st, _, refArtifact := httpDo(t, http.MethodGet, single.ts.URL+"/v1/jobs/"+refID+"/artifact/datasheet.txt", "")
	if st != http.StatusOK || refKey == "" {
		t.Fatalf("reference artifact %d (key %q)", st, refKey)
	}

	shards, _, tab, gw := startFleet(t, 3)
	job := compileVia(t, gw.URL)
	if job["key"] != refKey {
		t.Fatalf("cluster key %v, single-daemon key %s", job["key"], refKey)
	}
	// The compile must have landed on the ring owner, nowhere else.
	owner := tab.Ring().Owner(refKey)
	for _, sh := range shards {
		holds := sh.st.Contains(refKey)
		if (sh.ts.URL == owner) != holds {
			t.Fatalf("object placement: shard %s holds=%v, owner=%s", sh.ts.URL, holds, owner)
		}
	}

	jobID, _ := job["job_id"].(string)
	st, _, art := httpDo(t, http.MethodGet, gw.URL+"/v1/jobs/"+jobID+"/artifact/datasheet.txt", "")
	if st != http.StatusOK || !bytes.Equal(art, refArtifact) {
		t.Fatalf("gateway artifact %d, %d bytes (ref %d)", st, len(art), len(refArtifact))
	}

	// Key-addressed object read, GET and HEAD, through the gateway.
	st, hdr, obj := httpDo(t, http.MethodGet, gw.URL+"/v1/objects/"+refKey, "")
	if st != http.StatusOK || len(obj) == 0 {
		t.Fatalf("gateway object GET %d (%d bytes)", st, len(obj))
	}
	stH, hdrH, objH := httpDo(t, http.MethodHead, gw.URL+"/v1/objects/"+refKey, "")
	if stH != http.StatusOK || len(objH) != 0 {
		t.Fatalf("gateway object HEAD %d (%d bytes)", stH, len(objH))
	}
	if hdrH.Get("Content-Length") != hdr.Get("Content-Length") {
		t.Fatalf("HEAD length %q, GET length %q", hdrH.Get("Content-Length"), hdr.Get("Content-Length"))
	}

	// The cached-report probe proxies to whichever shard holds the key.
	st, _, rep := httpDo(t, http.MethodGet, gw.URL+"/v1/objects/"+refKey+"/report", "")
	if st != http.StatusOK {
		t.Fatalf("gateway object report %d: %s", st, rep)
	}
	var repEnv struct {
		Data struct {
			Key    string          `json:"key"`
			Report json.RawMessage `json:"report"`
		} `json:"data"`
	}
	if err := json.Unmarshal(rep, &repEnv); err != nil || repEnv.Data.Key != refKey || len(repEnv.Data.Report) == 0 {
		t.Fatalf("gateway object report malformed: %s", rep)
	}

	// Job status reads follow the issuing shard.
	st, _, raw := httpDo(t, http.MethodGet, gw.URL+"/v1/jobs/"+jobID, "")
	if st != http.StatusOK {
		t.Fatalf("gateway job read %d: %s", st, raw)
	}
}

// keyOf is the content key a daemon files a compile body under.
func keyOf(t *testing.T, body string) string {
	t.Helper()
	req, err := canon.ParseRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	p, err := req.Params()
	if err != nil {
		t.Fatal(err)
	}
	key, err := canon.KeyOfParams(p)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// jobWhenDone polls GET base/v1/jobs/{id} until the job is done and
// returns its status member.
func jobWhenDone(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, _, raw := httpDo(t, http.MethodGet, base+"/v1/jobs/"+id, "")
		var env struct {
			Job map[string]any `json:"job"`
		}
		if st != http.StatusOK || json.Unmarshal(raw, &env) != nil {
			t.Fatalf("job %s status %d: %s", id, st, raw)
		}
		if env.Job["state"] == "done" {
			return env.Job
		}
		if env.Job["state"] == "failed" || time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %s", id, raw)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGatewayAsyncJobsReadBackTheirOwnCompile: six async compiles of
// distinct geometries through a two-shard gateway, three owned by each
// shard, get six distinct job ids, and each job's status and result,
// read through the gateway, answer that submission's own key and
// report: no shard's job answers for another's.
func TestGatewayAsyncJobsReadBackTheirOwnCompile(t *testing.T) {
	_, _, tab, gw := startFleet(t, 2)
	type submission struct{ body, key, id string }
	var subs []submission
	perShard := map[string]int{}
	for _, words := range []int{64, 128, 256, 512} {
		for _, bpw := range []int{4, 8, 16, 32} {
			for _, spares := range []int{0, 4} {
				body := fmt.Sprintf(`{"words":%d,"bpw":%d,"bpc":4,"spares":%d}`, words, bpw, spares)
				key := keyOf(t, body)
				if owner := tab.Ring().Owner(key); perShard[owner] < 3 {
					perShard[owner]++
					subs = append(subs, submission{body: body, key: key})
				}
			}
		}
	}
	if len(subs) != 6 {
		t.Fatalf("candidate geometries split %v over the shards, want 3 each", perShard)
	}
	ids := map[string]bool{}
	for i := range subs {
		st, _, raw := httpDo(t, http.MethodPost, gw.URL+"/v1/compile?async=1", subs[i].body)
		var env struct {
			Job struct {
				JobID string `json:"job_id"`
			} `json:"job"`
		}
		if st != http.StatusAccepted || json.Unmarshal(raw, &env) != nil || env.Job.JobID == "" {
			t.Fatalf("async compile %d: %d %s", i, st, raw)
		}
		subs[i].id = env.Job.JobID
		ids[env.Job.JobID] = true
	}
	if len(ids) != len(subs) {
		t.Errorf("%d submissions got %d distinct job ids", len(subs), len(ids))
	}
	for _, sub := range subs {
		if job := jobWhenDone(t, gw.URL, sub.id); job["key"] != sub.key {
			t.Errorf("job %s of %s: status key %v, want %s", sub.id, sub.body, job["key"], sub.key)
			continue
		}
		st, _, raw := httpDo(t, http.MethodGet, gw.URL+"/v1/jobs/"+sub.id+"/result", "")
		var res struct {
			Data any `json:"data"`
		}
		if st != http.StatusOK || json.Unmarshal(raw, &res) != nil {
			t.Fatalf("job %s result %d: %s", sub.id, st, raw)
		}
		st, _, raw = httpDo(t, http.MethodGet, gw.URL+"/v1/objects/"+sub.key+"/report", "")
		var obj struct {
			Data struct {
				Report any `json:"report"`
			} `json:"data"`
		}
		if st != http.StatusOK || json.Unmarshal(raw, &obj) != nil {
			t.Fatalf("report of %s: %d %s", sub.key, st, raw)
		}
		if !reflect.DeepEqual(res.Data, obj.Data.Report) {
			t.Errorf("job %s of %s: result is not its key's report", sub.id, sub.body)
		}
	}
}

// TestGatewaySweepRouteJobsAnswerTheirPoint: every job id in a gateway
// sweep's status names a route job on the gateway's own queue, so
// GET /v1/jobs/{id} answers that point's key, /result its report, and
// GET /v1/debug/traces/{id} the route job's gateway-side trace — even
// when a shard holds a job of its own.
func TestGatewaySweepRouteJobsAnswerTheirPoint(t *testing.T) {
	shards, _, _, gw := startFleet(t, 2)
	if st, _, raw := httpDo(t, http.MethodPost, shards[0].ts.URL+"/v1/compile", `{"words":64,"bpw":8,"bpc":4,"spares":4}`); st != http.StatusOK {
		t.Fatalf("direct shard compile %d: %s", st, raw)
	}
	id, _ := runSweepVia(t, gw.URL)
	st, _, raw := httpDo(t, http.MethodGet, gw.URL+"/v1/sweeps/"+id, "")
	var env struct {
		Sweep sweep.Status `json:"sweep"`
	}
	if st != http.StatusOK || json.Unmarshal(raw, &env) != nil {
		t.Fatalf("sweep status %d: %s", st, raw)
	}
	for _, pt := range env.Sweep.Points {
		if pt.JobID == "" {
			t.Fatalf("point %d carries no job id: %s", pt.Index, raw)
		}
		job := jobWhenDone(t, gw.URL, pt.JobID)
		if job["key"] != pt.Key {
			t.Errorf("point %d job %s: key %v, want %s", pt.Index, pt.JobID, job["key"], pt.Key)
		}
		if st, _, raw := httpDo(t, http.MethodGet, gw.URL+"/v1/jobs/"+pt.JobID+"/result", ""); st != http.StatusOK {
			t.Errorf("point %d job %s result %d: %s", pt.Index, pt.JobID, st, raw)
		}
		st, _, raw := httpDo(t, http.MethodGet, gw.URL+"/v1/debug/traces/"+pt.JobID+"?format=spans", "")
		if st != http.StatusOK {
			t.Errorf("point %d job %s trace %d: %s", pt.Index, pt.JobID, st, raw)
			continue
		}
		ss, err := obs.ParseSpanSet(raw)
		if err != nil || ss.Node != gatewayNode || !slices.ContainsFunc(ss.Spans, func(s obs.WireSpan) bool { return s.Name == "proxy.route" }) {
			t.Errorf("point %d job %s trace is not the gateway route job's (%v): %s", pt.Index, pt.JobID, err, raw)
		}
	}
}

// TestJobTableConcurrentBound: concurrent puts and gets keep the
// gateway's job table at jobs.KeepFinished routes, and sequential puts
// evict the oldest id first.
func TestJobTableConcurrentBound(t *testing.T) {
	var tab jobTable
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := strconv.Itoa(g*1000 + i)
				tab.put(id, route{peer: id})
				tab.get(id)
			}
		}(g)
	}
	wg.Wait()
	if n := len(tab.byID); n != jobs.KeepFinished {
		t.Fatalf("table holds %d, want %d", n, jobs.KeepFinished)
	}

	var fifo jobTable
	for i := 0; i <= jobs.KeepFinished; i++ {
		fifo.put(strconv.Itoa(i), route{})
	}
	if _, ok := fifo.get("0"); ok {
		t.Fatal("oldest id not evicted")
	}
	if _, ok := fifo.get(strconv.Itoa(jobs.KeepFinished)); !ok {
		t.Fatal("newest id missing")
	}
}

// TestGatewaySweepByteIdenticalAndZeroRecompiles: the acceptance
// criterion — a fresh sweep served by a 3-shard cluster returns a
// results document byte-identical to a standalone daemon's, and
// repeating the sweep against the warm cluster runs zero compiles on
// any shard.
func TestGatewaySweepByteIdenticalAndZeroRecompiles(t *testing.T) {
	single := startShard(t)
	_, refResults := runSweepVia(t, single.ts.URL)

	shards, _, _, gw := startFleet(t, 3)
	_, gwResults := runSweepVia(t, gw.URL)
	if !bytes.Equal(gwResults, refResults) {
		t.Fatalf("cluster sweep diverged from single daemon:\n--- single ---\n%s\n--- cluster ---\n%s", refResults, gwResults)
	}

	completed := func() (n uint64) {
		for _, sh := range shards {
			n += sh.q.Stats().Completed
		}
		return n
	}
	before := completed()
	if before == 0 {
		t.Fatal("fresh sweep ran no shard compiles")
	}
	// The repeat is served entirely from the fleet's caches — zero
	// recompiles, and the rows now carry cached=true exactly as a warm
	// single daemon's repeat does.
	_, refRepeat := runSweepVia(t, single.ts.URL)
	_, gwRepeat := runSweepVia(t, gw.URL)
	if !bytes.Equal(gwRepeat, refRepeat) {
		t.Fatalf("repeat sweep diverged from warm single daemon:\n--- single ---\n%s\n--- cluster ---\n%s", refRepeat, gwRepeat)
	}
	if !bytes.Contains(gwRepeat, []byte(`"cached": true`)) {
		t.Fatalf("repeat cluster sweep rows not marked cached:\n%s", gwRepeat)
	}
	if after := completed(); after != before {
		t.Fatalf("repeat sweep recompiled: shard completions %d -> %d", before, after)
	}
}

// TestGatewayFailoverToSuccessor: killing the key's owning shard
// reroutes the next compile to the ring successor, which produces the
// same key; the dead peer is marked down and the failover counter
// moves.
func TestGatewayFailoverToSuccessor(t *testing.T) {
	shards, g, tab, gw := startFleet(t, 3)
	job := compileVia(t, gw.URL)
	key, _ := job["key"].(string)
	owner := tab.Ring().Owner(key)
	for _, sh := range shards {
		if sh.ts.URL == owner {
			sh.ts.Close() // hard kill: connections refused from here on
		}
	}
	job2 := compileVia(t, gw.URL)
	if job2["key"] != key {
		t.Fatalf("failover compile key %v, want %s", job2["key"], key)
	}
	if tab.Up(owner) {
		t.Fatal("dead owner still marked up")
	}
	snap := g.cfg.Registry.Snapshot()
	if v, _ := snap["proxy_failovers_total"].(uint64); v < 1 {
		t.Fatalf("proxy_failovers_total = %v, want >= 1", snap["proxy_failovers_total"])
	}
	// The successor now holds the object; a key-addressed read still
	// resolves.
	st, _, _ := httpDo(t, http.MethodGet, gw.URL+"/v1/objects/"+key, "")
	if st != http.StatusOK {
		t.Fatalf("object read after failover: %d", st)
	}
}

// TestGatewayChaosRouteInjection: a scripted proxy.route fault on the
// first exchange forces a failover; the request still succeeds on the
// successor and the injection is visible in the metrics.
func TestGatewayChaosRouteInjection(t *testing.T) {
	shards, _, tab, _ := startFleet(t, 2)
	_ = shards
	inj, err := chaos.Parse([]byte(`{"rules":[{"point":"proxy.route","mode":"error","max":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	q := jobs.New(jobs.Config{Workers: 2, Deadline: time.Minute})
	defer q.Shutdown(context.Background())
	g, err := NewGateway(GatewayConfig{Table: tab, Queue: q, Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	job := compileVia(t, ts.URL)
	if job["key"] == "" {
		t.Fatalf("chaos-path compile: %v", job)
	}
	if inj.Fired() != 1 {
		t.Fatalf("chaos fired %d, want 1", inj.Fired())
	}
	snap := g.cfg.Registry.Snapshot()
	if v, _ := snap["proxy_failovers_total"].(uint64); v < 1 {
		t.Fatalf("proxy_failovers_total = %v, want >= 1", snap["proxy_failovers_total"])
	}
}

// TestPeerFetchThroughRealShards: the full peer-fetch loop — a key
// compiled on shard A is served by shard B as a cache hit (no
// compile) after B's store pulls the object image off A through the
// /v1/objects endpoint and promotes it through the verified-read
// path.
func TestPeerFetchThroughRealShards(t *testing.T) {
	a := startShard(t)
	job := compileVia(t, a.ts.URL)
	key, _ := job["key"].(string)
	if key == "" || !a.st.Contains(key) {
		t.Fatalf("shard A did not persist %q", key)
	}

	b := startShard(t)
	r, err := NewRing([]string{a.ts.URL, b.ts.URL}, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	peers := NewPeers(NewTable(r), b.ts.URL)
	b.st.SetPeerFetch(peers.FetchObject)

	job2 := compileVia(t, b.ts.URL)
	if job2["key"] != key {
		t.Fatalf("shard B key %v, want %s", job2["key"], key)
	}
	if cached, _ := job2["cached"].(bool); !cached {
		t.Fatalf("shard B recompiled instead of peer-fetching: %v", job2)
	}
	if got := b.q.Stats().Completed; got != 0 {
		t.Fatalf("shard B ran %d compiles, want 0", got)
	}
	if st := b.st.Stats(); st.PeerHits != 1 {
		t.Fatalf("shard B peer-fetch stats: %+v", st)
	}
}

// answer is the part of a response a client branches on.
type answer struct {
	status             int
	allow, contentType string
	member, code       string // envelope payload member, error code
}

func answerOf(t *testing.T, method, url, body string) answer {
	t.Helper()
	st, hdr, raw := httpDo(t, method, url, body)
	a := answer{status: st, allow: hdr.Get("Allow"), contentType: hdr.Get("Content-Type")}
	var env map[string]json.RawMessage
	if strings.HasPrefix(a.contentType, "application/json") && json.Unmarshal(raw, &env) == nil {
		for _, m := range []string{"job", "sweep", "data"} {
			if v, ok := env[m]; ok && string(v) != "null" {
				a.member = m
			}
		}
		var we sweep.WireError
		if json.Unmarshal(env["error"], &we) == nil {
			a.code = we.Code
		}
	}
	return a
}

// TestGatewayMethodTable: every row goes both to a daemon and to a
// gateway over one shard, and the two must answer alike — status,
// Allow, Content-Type, envelope member and error code. Both sides
// compile the same request and run the same sweep first, so their
// sweep ids line up; the {job} rows use the job id each side's own
// compile returned.
func TestGatewayMethodTable(t *testing.T) {
	daemon := startShard(t)
	_, _, _, gw := startFleet(t, 1)
	var key string
	jobIDs := map[string]string{}
	for _, base := range []string{daemon.ts.URL, gw.URL} {
		job := compileVia(t, base)
		key, _ = job["key"].(string)
		jobIDs[base], _ = job["job_id"].(string)
		runSweepVia(t, base)
	}
	job, sw, obj := "/v1/jobs/{job}", "/v1/sweeps/sweep-000001", "/v1/objects/"+key
	type row struct{ method, path, body string }
	routes := []row{
		{http.MethodPost, "/v1/compile", gwReq},
		{http.MethodGet, job, ""},
		{http.MethodGet, job + "/result", ""},
		{http.MethodGet, job + "/artifact/datasheet.txt", ""},
		{http.MethodGet, obj, ""},
		{http.MethodGet, obj + "/report", ""},
		{http.MethodPost, "/v1/sweeps", gwSweep},
		{http.MethodGet, sw, ""},
		{http.MethodGet, sw + "/results", ""},
		{http.MethodGet, sw + "/events", ""},
		{http.MethodGet, "/v1/processes", ""},
		{http.MethodGet, "/v1/tests", ""},
		{http.MethodGet, "/v1/debug/traces/{job}", ""},
	}
	rows := append([]row(nil), routes...)
	for _, rt := range routes {
		rows = append(rows, row{http.MethodDelete, rt.path, ""})
	}
	rows = append(rows, []row{
		{http.MethodGet, "/v1/jobs/job-999999", ""},
		{http.MethodGet, "/v1/sweeps/sweep-999999", ""},
		{http.MethodGet, "/v1/debug/traces/job-999999", ""},
		{http.MethodPost, "/v1/compile", "not json"},
		{http.MethodPost, "/v1/compile", strings.Repeat("x", server.MaxRequestBody+1)},
		{http.MethodPost, "/v1/compile?priority=urgent", gwReq},
		{http.MethodGet, sw + "/results?limit=-2", ""},
		{http.MethodHead, job + "/artifact/datasheet.txt", ""},
	}...)
	at := func(base, path string) string { return base + strings.Replace(path, "{job}", jobIDs[base], 1) }
	for _, row := range rows {
		want := answerOf(t, row.method, at(daemon.ts.URL, row.path), row.body)
		got := answerOf(t, row.method, at(gw.URL, row.path), row.body)
		if strings.Contains(row.path, "{job}") && row.method != http.MethodDelete && want.status != http.StatusOK {
			t.Errorf("%s %s: daemon %+v, want 200 for its own job", row.method, row.path, want)
		}
		if got != want {
			t.Errorf("%s %s: gateway %+v, daemon %+v", row.method, row.path, got, want)
		}
	}
}

// TestGatewayShedsWithRetryAfter: a gateway that reaches no shard —
// its only shard dead, or both shards of a dead two-shard fleet — sheds
// every compile with its own 429 ERR_OVERLOADED carrying the
// Retry-After hint the error contract promises, the first compile
// included, and counts its requests like a daemon.
func TestGatewayShedsWithRetryAfter(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d-dead", shards), func(t *testing.T) {
			urls := make([]string, shards)
			for i := range urls {
				dead := httptest.NewServer(http.NotFoundHandler())
				dead.Close()
				urls[i] = dead.URL
			}
			r, err := NewRing(urls, DefaultVNodes)
			if err != nil {
				t.Fatal(err)
			}
			q := jobs.New(jobs.Config{Workers: 1, Deadline: time.Minute})
			defer q.Shutdown(context.Background())
			g, err := NewGateway(GatewayConfig{Table: NewTable(r), Queue: q})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(g.Handler())
			defer ts.Close()

			for i := 1; i <= 3; i++ {
				st, hdr, raw := httpDo(t, http.MethodPost, ts.URL+"/v1/compile", gwReq)
				if st != http.StatusTooManyRequests || !strings.Contains(string(raw), "ERR_OVERLOADED") {
					t.Fatalf("compile %d through a dead fleet: %d %s", i, st, raw)
				}
				if hdr.Get("Retry-After") == "" {
					t.Fatalf("compile %d: gateway 429 carries no Retry-After", i)
				}
			}
			if _, ok := g.cfg.Registry.Snapshot()["http_requests_total"]; !ok {
				t.Fatal("gateway registry has no http_requests_total")
			}
		})
	}
}

// TestGatewayRelayPreservesDiagnosticHeaders: a 429 (and a 5xx)
// proxied through the gateway keeps the shard's Retry-After backoff
// hint and every X-* diagnostic header — failover must not strip the
// upstream forensics.
func TestGatewayRelayPreservesDiagnosticHeaders(t *testing.T) {
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		switch r.URL.Path {
		case "/v1/compile":
			h.Set("Retry-After", "7")
			h.Set("X-Queue-Depth", "256")
			h.Add("X-Shed-Reason", "queue full")
			h.Add("X-Shed-Reason", "admission")
			h.Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"ERR_OVERLOADED","message":"queue full"}}`)
		default:
			h.Set("X-Failure-Stage", "floorplan")
			h.Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, `{"error":{"code":"ERR_INTERNAL","message":"synthetic"}}`)
		}
	}))
	defer shard.Close()

	r, err := NewRing([]string{shard.URL}, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	q := jobs.New(jobs.Config{Workers: 1, Deadline: time.Minute})
	defer q.Shutdown(context.Background())
	g, err := NewGateway(GatewayConfig{Table: NewTable(r), Queue: q})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	st, hdr, raw := httpDo(t, http.MethodPost, ts.URL+"/v1/compile", gwReq)
	if st != http.StatusTooManyRequests {
		t.Fatalf("proxied 429 became %d: %s", st, raw)
	}
	if got := hdr.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want 7", got)
	}
	if got := hdr.Get("X-Queue-Depth"); got != "256" {
		t.Fatalf("X-Queue-Depth %q, want 256", got)
	}
	if got := hdr.Values("X-Shed-Reason"); len(got) != 2 || got[0] != "queue full" || got[1] != "admission" {
		t.Fatalf("X-Shed-Reason %v, want both values", got)
	}
	if !strings.Contains(string(raw), "ERR_OVERLOADED") {
		t.Fatalf("429 body not relayed verbatim: %s", raw)
	}

	st, hdr, raw = httpDo(t, http.MethodGet, ts.URL+"/v1/jobs/job-000001", "")
	if st != http.StatusInternalServerError {
		t.Fatalf("proxied 5xx became %d: %s", st, raw)
	}
	if got := hdr.Get("X-Failure-Stage"); got != "floorplan" {
		t.Fatalf("X-Failure-Stage %q, want floorplan", got)
	}
}

// TestGatewayHealthz: the health document identifies the gateway role
// and fleet view, and degrades to 503 when no shard is reachable.
func TestGatewayHealthz(t *testing.T) {
	_, _, tab, gw := startFleet(t, 2)
	st, _, raw := httpDo(t, http.MethodGet, gw.URL+"/healthz", "")
	if st != http.StatusOK {
		t.Fatalf("healthz %d", st)
	}
	var hz map[string]any
	if err := json.Unmarshal(raw, &hz); err != nil {
		t.Fatal(err)
	}
	if hz["role"] != "gateway" || hz["peers_up"].(float64) != 2 {
		t.Fatalf("healthz: %s", raw)
	}
	for _, m := range tab.Ring().Members() {
		tab.MarkDown(m)
	}
	st, _, raw = httpDo(t, http.MethodGet, gw.URL+"/healthz", "")
	if st != http.StatusServiceUnavailable || !strings.Contains(string(raw), "degraded") {
		t.Fatalf("fleet-down healthz %d: %s", st, raw)
	}
}

// TestGatewayV1DebugTraceAndPagedResults: the gateway serves the
// shard's /v1 surface — /v1/debug/traces/{id} serves the merged trace
// in every negotiated representation with enveloped 405 parity, and
// /v1/sweeps/{id}/results windows rows with page metadata in the
// envelope while the parameterless fetch stays the full document.
func TestGatewayV1DebugTraceAndPagedResults(t *testing.T) {
	_, _, _, gw := startFleet(t, 2)
	job := compileVia(t, gw.URL)
	jobID, _ := job["job_id"].(string)
	if jobID == "" {
		t.Fatalf("no job_id: %v", job)
	}

	// Merged trace via the /v1 route, chrome default.
	st, hdr, chrome := httpDo(t, http.MethodGet, gw.URL+"/v1/debug/traces/"+jobID, "")
	if st != http.StatusOK || !strings.HasPrefix(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("v1 trace: %d %q: %.300s", st, hdr.Get("Content-Type"), chrome)
	}
	// Both processes of the distributed trace are present.
	if !bytes.Contains(chrome, []byte("gateway")) || !bytes.Contains(chrome, []byte("proxy.route")) {
		t.Fatalf("merged trace missing gateway spans: %.500s", chrome)
	}
	// Tree and spans representations.
	st, _, tree := httpDo(t, http.MethodGet, gw.URL+"/v1/debug/traces/"+jobID+"?format=tree", "")
	if st != http.StatusOK || !bytes.Contains(tree, []byte("proxy.route")) {
		t.Fatalf("tree: %d: %s", st, tree)
	}
	st, _, spans := httpDo(t, http.MethodGet, gw.URL+"/v1/debug/traces/"+jobID+"?format=spans", "")
	if st != http.StatusOK {
		t.Fatalf("spans: %d: %s", st, spans)
	}
	ss, err := obs.ParseSpanSet(spans)
	if err != nil || len(ss.Spans) == 0 {
		t.Fatalf("span set did not parse (%v): %.300s", err, spans)
	}
	// Enveloped 405 with Allow on the /v1 route.
	st, hdr, body := httpDo(t, http.MethodPost, gw.URL+"/v1/debug/traces/"+jobID, "{}")
	var errEnv struct {
		Error *struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if st != http.StatusMethodNotAllowed || hdr.Get("Allow") != "GET" ||
		json.Unmarshal(body, &errEnv) != nil || errEnv.Error == nil {
		t.Fatalf("POST trace: %d Allow=%q: %s", st, hdr.Get("Allow"), body)
	}

	// Paged sweep results through the gateway.
	sweepID, full := runSweepVia(t, gw.URL)
	if bytes.Contains(full, []byte(`"page"`)) {
		t.Fatalf("full document grew a page member: %s", full)
	}
	st, _, body = httpDo(t, http.MethodGet, gw.URL+"/v1/sweeps/"+sweepID+"/results?offset=1&limit=2", "")
	var pe struct {
		Data *sweep.Results `json:"data"`
		Page *sweep.Page    `json:"page"`
	}
	if st != http.StatusOK || json.Unmarshal(body, &pe) != nil || pe.Page == nil {
		t.Fatalf("paged results: %d: %s", st, body)
	}
	if len(pe.Data.Rows) != 2 || pe.Page.Total != 4 || pe.Page.NextOffset == nil || *pe.Page.NextOffset != 3 {
		t.Fatalf("window shape: %+v %+v", pe.Data, pe.Page)
	}
	st, _, body = httpDo(t, http.MethodGet, gw.URL+"/v1/sweeps/"+sweepID+"/results?limit=-2", "")
	if st != http.StatusBadRequest {
		t.Fatalf("bad limit: %d: %s", st, body)
	}
	// A paging client reassembles the same rows via the gateway.
	cl := sweep.NewClient(gw.URL)
	cl.PageSize = 1
	res, err := cl.SweepResults(sweepID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("paged client rows: %+v", res)
	}
}
