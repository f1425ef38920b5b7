package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

const (
	smokeReq = `{"words":256,"bpw":8,"bpc":4,"spares":4}`
	// The fresh/repeat sweep: small so the cached-repeat check is quick.
	smokeSweep = `{"base":{"words":256,"bpw":8,"bpc":4,"spares":4},"axes":{"spares":[0,4],"defects":[0,5]}}`
	// The kill-drill sweep: 16 unique compiles (words × spares both
	// affect the key) so there is a "mid-sweep" to kill a shard in, on
	// geometries no earlier step compiled — both sides run every point
	// cold, keeping the row-level cached flags identical.
	killSweep = `{"base":{"words":256,"bpw":8,"bpc":4,"spares":4},"axes":{"words":[512,1024,2048,4096],"spares":[0,4,8,16]}}`
)

// TestClusterSmoke is the end-to-end federation check behind `make
// cluster-smoke`: build both binaries, start a gateway over three
// federated shards plus one standalone reference daemon, and require
//
//  1. a compile through the cluster returns the same key and
//     byte-identical artifact as the single daemon;
//  2. async compiles of distinct geometries through the gateway land
//     on at least two shards with distinct job ids, and each job's
//     result read through the gateway is its own key's report;
//  3. a fresh sweep through the cluster returns a results document
//     byte-identical to the single daemon's;
//  4. repeating the sweep against the warm cluster runs zero compiles
//     on any shard (the fleet's caches absorb it);
//  5. kill -9 of one shard mid-sweep still completes the sweep via
//     ring-successor failover, again with byte-identical rows.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster smoke builds and runs four daemons and a gateway")
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

	// One standalone daemon as the byte-identity reference.
	refAddr := freeAddr(t)
	ref := startProc(t, shardBin,
		"-addr", refAddr, "-workers", "2", "-quiet",
		"-store-dir", filepath.Join(dir, "ref-store"))
	refBase := "http://" + refAddr
	waitHealthy(t, refBase, ref.exited)

	// Three federated shards.
	addrs := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
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

	// The gateway in front of them.
	gwAddr := freeAddr(t)
	gw := startProc(t, gateBin,
		"-addr", gwAddr, "-shards", peers, "-probe-interval", "300ms")
	gwBase := "http://" + gwAddr
	waitHealthy(t, gwBase, gw.exited)

	// 1. Compile: same key, byte-identical artifact.
	refJob := postCompile(t, refBase, smokeReq)
	gwJob := postCompile(t, gwBase, smokeReq)
	if refJob.Key == "" || refJob.Key != gwJob.Key {
		t.Fatalf("content addresses disagree: single %q, cluster %q", refJob.Key, gwJob.Key)
	}
	refArt := getRaw(t, refBase+"/v1/jobs/"+refJob.JobID+"/artifact/datasheet.txt")
	gwArt := getRaw(t, gwBase+"/v1/jobs/"+gwJob.JobID+"/artifact/datasheet.txt")
	if !bytes.Equal(refArt, gwArt) {
		t.Fatalf("artifact bytes diverge: single %d bytes, cluster %d bytes", len(refArt), len(gwArt))
	}

	// 2. Job identity across the fleet.
	checkJobIdentity(t, gwBase, urls)

	// 3. Fresh sweep: byte-identical results documents.
	refResults := runSweep(t, refBase, smokeSweep, nil)
	gwResults := runSweep(t, gwBase, smokeSweep, nil)
	if !bytes.Equal(refResults, gwResults) {
		t.Fatalf("sweep results diverge:\n--- single ---\n%s\n--- cluster ---\n%s", refResults, gwResults)
	}

	// 4. Repeat sweep: zero recompiles anywhere in the fleet, and the
	// warm rows (cached=true) still match the warm single daemon's.
	before := fleetCompletions(t, urls)
	refRepeat := runSweep(t, refBase, smokeSweep, nil)
	gwRepeat := runSweep(t, gwBase, smokeSweep, nil)
	if !bytes.Equal(refRepeat, gwRepeat) {
		t.Fatalf("repeat sweep results diverge:\n--- single ---\n%s\n--- cluster ---\n%s", refRepeat, gwRepeat)
	}
	if after := fleetCompletions(t, urls); after != before {
		t.Fatalf("repeat sweep recompiled: fleet completions %d -> %d", before, after)
	}

	// 5. Kill one shard mid-sweep; the sweep must still complete with
	// rows byte-identical to the single daemon's.
	refKill := runSweep(t, refBase, killSweep, nil)
	gwKill := runSweep(t, gwBase, killSweep, func(done int) {
		if done >= 2 && shards[1] != nil {
			shards[1].kill(t)
			shards[1] = nil
		}
	})
	if shards[1] != nil {
		t.Fatal("kill sweep finished before any point did; nothing was killed mid-sweep")
	}
	if !bytes.Equal(refKill, gwKill) {
		t.Fatalf("post-kill sweep results diverge:\n--- single ---\n%s\n--- cluster ---\n%s", refKill, gwKill)
	}

	// The gateway notices the dead shard — through routed traffic
	// failing over or, at the latest, the next health-probe tick.
	var hz struct {
		PeersUp    int `json:"peers_up"`
		PeersTotal int `json:"peers_total"`
	}
	detect := time.Now().Add(5 * time.Second)
	for {
		getJSON(t, gwBase+"/healthz", &hz)
		if hz.PeersTotal == 3 && hz.PeersUp <= 2 {
			break
		}
		if time.Now().After(detect) {
			t.Fatalf("gateway never marked the killed shard down: up %d of %d", hz.PeersUp, hz.PeersTotal)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// checkJobIdentity sends async compiles of distinct geometries (bpw 16
// and 32, which no other step compiles) through the gateway. Their job
// ids must be distinct and held by at least two of the shards, and
// each job's result read through the gateway must be the report of the
// key its submission answered.
func checkJobIdentity(t *testing.T, gwBase string, shards []string) {
	t.Helper()
	ids, holders := map[string]bool{}, map[string]bool{}
	for _, words := range []int{64, 128, 256, 512, 1024, 2048} {
		for _, bpw := range []int{16, 32} {
			body := fmt.Sprintf(`{"words":%d,"bpw":%d,"bpc":4,"spares":4}`, words, bpw)
			resp, err := http.Post(gwBase+"/v1/compile?async=1", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var env struct {
				Job smokeJob `json:"job"`
			}
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			job := env.Job
			if err != nil || resp.StatusCode != http.StatusAccepted || job.JobID == "" {
				t.Fatalf("async compile %s: status %d, job %+v (%v)", body, resp.StatusCode, job, err)
			}
			if ids[job.JobID] {
				t.Fatalf("job id %s issued twice", job.JobID)
			}
			ids[job.JobID] = true
			for _, u := range shards {
				if r, err := http.Get(u + "/v1/jobs/" + job.JobID); err == nil {
					r.Body.Close()
					if r.StatusCode == http.StatusOK {
						holders[u] = true
					}
				}
			}
			for deadline := time.Now().Add(60 * time.Second); job.State != "done"; time.Sleep(20 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("job %s of %s never finished (state %q)", job.JobID, body, job.State)
				}
				key := job.Key
				getJSON(t, gwBase+"/v1/jobs/"+job.JobID, &env)
				if job = env.Job; job.Key != key {
					t.Fatalf("job %s of %s: status key %s, submitted key %s", job.JobID, body, job.Key, key)
				}
			}
			var result struct {
				Data any `json:"data"`
			}
			var report struct {
				Data struct {
					Report any `json:"report"`
				} `json:"data"`
			}
			if json.Unmarshal(getRaw(t, gwBase+"/v1/jobs/"+job.JobID+"/result"), &result) != nil ||
				json.Unmarshal(getRaw(t, gwBase+"/v1/objects/"+job.Key+"/report"), &report) != nil ||
				!reflect.DeepEqual(result.Data, report.Data.Report) {
				t.Fatalf("job %s of %s: result is not the report of key %s", job.JobID, body, job.Key)
			}
		}
	}
	if len(holders) < 2 {
		t.Fatalf("%d async compiles landed on %d shard(s), want at least 2", len(ids), len(holders))
	}
}

// proc is one managed daemon process.
type proc struct {
	cmd    *exec.Cmd
	stderr *bytes.Buffer
	exited chan error
}

func startProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	p := &proc{cmd: cmd, stderr: &stderr, exited: make(chan error, 1)}
	go func() { p.exited <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck // backstop; normal paths killed already
		select {
		case <-p.exited:
		case <-time.After(5 * time.Second):
		}
	})
	return p
}

// kill is SIGKILL — no drain, no goodbye, the failure mode the ring
// exists for.
func (p *proc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	<-p.exited
}

// fleetCompletions sums completed compile jobs across the shard
// fleet's /metrics.
func fleetCompletions(t *testing.T, urls []string) (n uint64) {
	t.Helper()
	for _, u := range urls {
		var m struct {
			Queue struct {
				Completed uint64 `json:"completed"`
			} `json:"queue"`
		}
		getJSON(t, u+"/metrics", &m)
		n += m.Queue.Completed
	}
	return n
}

// runSweep creates a sweep, polls until done (invoking onProgress
// with the done-count each poll) and returns the verbatim results
// document.
func runSweep(t *testing.T, base, spec string, onProgress func(done int)) []byte {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Sweep struct {
			ID    string `json:"id"`
			State string `json:"state"`
			Done  int    `json:"done"`
		} `json:"sweep"`
		Error json.RawMessage `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep create %d (error %s)", resp.StatusCode, env.Error)
	}
	id := env.Sweep.ID
	deadline := time.Now().Add(90 * time.Second)
	for {
		env.Sweep.State = ""
		getJSON(t, base+"/v1/sweeps/"+id, &env)
		if onProgress != nil {
			onProgress(env.Sweep.Done)
		}
		if env.Sweep.State == "done" {
			break
		}
		if env.Sweep.State == "failed" {
			t.Fatalf("sweep %s failed", id)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s never finished (state %s, done %d)", id, env.Sweep.State, env.Sweep.Done)
		}
		time.Sleep(25 * time.Millisecond)
	}
	return getRaw(t, base+"/v1/sweeps/"+id+"/results")
}

func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, raw)
	}
	return raw
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// freeAddr reserves an ephemeral localhost port and releases it for a
// daemon to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

type smokeJob struct {
	Key       string `json:"key"`
	JobID     string `json:"job_id"`
	State     string `json:"state"`
	Cached    bool   `json:"cached"`
	CacheTier string `json:"cache_tier"`
}

func postCompile(t *testing.T, base, body string) smokeJob {
	t.Helper()
	resp, err := http.Post(base+"/v1/compile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Job   smokeJob        `json:"job"`
		Error json.RawMessage `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/compile: status %d (error %s)", resp.StatusCode, env.Error)
	}
	if env.Job.State != "done" {
		t.Fatalf("unexpected terminal state %q", env.Job.State)
	}
	return env.Job
}

// waitHealthy polls /healthz until the daemon answers 200, failing
// fast if the process dies first (exited may be nil).
func waitHealthy(t *testing.T, base string, exited <-chan error) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if exited != nil {
			select {
			case err := <-exited:
				t.Fatalf("daemon exited before becoming healthy: %v", err)
			default:
			}
		}
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
}
