package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

const (
	// mcSweep: one compile group (the MC knobs are analysis-only and
	// excluded from the content key) fanned into two seeded
	// statistical-yield points. Small sample counts keep the drill
	// quick; determinism does not depend on sample size.
	mcSweep = `{"base":{"words":256,"bpw":8,"bpc":4,"spares":4,"mc_seed":9},"axes":{"mc_samples":[48],"mc_sigma":[0.15,0.2]}}`
	// mcKillSweep: four unique compiles (the words axis changes the
	// key) each carrying an MC verdict, so a one-worker stalled daemon
	// is reliably mid-sweep when it is killed.
	mcKillSweep  = `{"base":{"words":256,"bpw":8,"bpc":4,"spares":4,"mc_seed":9},"axes":{"words":[512,1024,2048,4096],"mc_samples":[48],"mc_sigma":[0.2]}}`
	mcKillUnique = 4
)

// TestMCSmoke is the statistical-yield drill behind `make mc-smoke`:
// the Monte-Carlo yield engine exercised end to end through the real
// binaries.
//
//  1. Determinism: a seeded MC sweep submitted twice to one daemon
//     returns results documents identical up to the sweep ID and the
//     row cached flags (the repeat is a warm run by construction).
//  2. Federation: the same sweep through a bisramgate gateway over two
//     federated shards matches the standalone daemon's first document
//     byte for byte — both are first sweeps on cold fleets, so even
//     the sweep ID and cached flags agree.
//  3. Crash/resume: kill -9 a stalled daemon mid-MC-sweep; a restart
//     over the same store resumes from the journal, completes under
//     the original sweep ID, and every row's MC block matches an
//     undisturbed run.
func TestMCSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("mc smoke builds and runs daemons and a gateway")
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

	// 1. One standalone daemon: the same seeded sweep twice.
	refAddr := freeAddr(t)
	ref := startProc(t, shardBin,
		"-addr", refAddr, "-workers", "2", "-quiet",
		"-store-dir", filepath.Join(dir, "ref-store"))
	refBase := "http://" + refAddr
	waitHealthy(t, refBase, ref.exited)

	first := runSweep(t, refBase, mcSweep, nil)
	second := runSweep(t, refBase, mcSweep, nil)
	assertMCRows(t, first, 2)
	if !bytes.Equal(stripRunIdentity(t, first), stripRunIdentity(t, second)) {
		t.Fatalf("seeded MC sweep not deterministic across submissions:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}

	// The reference for the crash drill, measured while the daemon is
	// undisturbed. The words geometries are fresh, so every row is cold.
	refKill := runSweep(t, refBase, mcKillSweep, nil)
	assertMCRows(t, refKill, mcKillUnique)

	// 2. A gateway over two federated shards: the first sweep through
	// the cold cluster must reproduce the daemon's first document byte
	// for byte (same sweep ID, same cold cached flags, same MC rows).
	addrs := []string{freeAddr(t), freeAddr(t)}
	urls := make([]string, len(addrs))
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	peers := strings.Join(urls, ",")
	for i, a := range addrs {
		startProc(t, shardBin,
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

	gwFirst := runSweep(t, gwBase, mcSweep, nil)
	if !bytes.Equal(first, gwFirst) {
		t.Fatalf("gateway MC sweep diverges from the single daemon's:\n--- single ---\n%s\n--- cluster ---\n%s", first, gwFirst)
	}

	// 3. Crash/resume. One worker and an injected 400 ms stage stall
	// per compile keep the victim reliably mid-sweep; SIGKILL, then a
	// restart over the same store and address must announce the resume
	// and finish the sweep under its original ID.
	vdir := filepath.Join(dir, "victim-store")
	vAddr := freeAddr(t)
	d1 := startProc(t, shardBin,
		"-addr", vAddr, "-workers", "1", "-quiet", "-store-dir", vdir,
		"-chaos-spec", `{"rules":[{"point":"compile.stage.floorplan","mode":"delay","delay_ms":400}]}`)
	vBase := "http://" + vAddr
	waitHealthy(t, vBase, d1.exited)

	id := createSweep(t, vBase, mcKillSweep)
	deadline := time.Now().Add(60 * time.Second)
	for doneGroups(t, vBase, id) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no group finished within 60s; cannot stage a mid-sweep kill")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := doneGroups(t, vBase, id); n >= mcKillUnique {
		t.Fatalf("sweep finished before the kill (%d groups done); stall too short", n)
	}
	d1.kill(t)

	d2 := startProc(t, shardBin, "-addr", vAddr, "-quiet", "-store-dir", vdir)
	waitHealthy(t, vBase, d2.exited)
	resumed := waitSweepByID(t, vBase, id)
	assertMCRows(t, resumed, mcKillUnique)
	// Resume replays journaled groups through the store, so the cached
	// flags differ from the cold reference by construction; every
	// measured column — the MC verdicts included — must be identical.
	if !bytes.Equal(stripRunIdentity(t, refKill), stripRunIdentity(t, resumed)) {
		t.Fatalf("rows drifted across crash/resume:\n--- reference ---\n%s\n--- resumed ---\n%s", refKill, resumed)
	}

	// Drain d2 before reading its stderr: the buffer is written from
	// the process-wait goroutine, so the read is only safe after Wait.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-d2.exited
	if !strings.Contains(d2.stderr.String(), "resumed 1 interrupted sweep") {
		t.Fatalf("restart did not announce a resume\nstderr:\n%s", d2.stderr.String())
	}
}

// assertMCRows requires every row of a results document to carry a
// complete seeded MC block.
func assertMCRows(t *testing.T, raw []byte, rows int) {
	t.Helper()
	var env struct {
		Data struct {
			Rows []struct {
				Index int `json:"index"`
				MC    *struct {
					Samples    int     `json:"samples"`
					Seed       int64   `json:"seed"`
					FailProb   float64 `json:"fail_prob"`
					SigmaLevel float64 `json:"sigma_level"`
					YieldCell  float64 `json:"yield_cell"`
					YieldArray float64 `json:"yield_array"`
				} `json:"mc"`
			} `json:"rows"`
		} `json:"data"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("results document: %v", err)
	}
	if len(env.Data.Rows) != rows {
		t.Fatalf("results rows = %d, want %d", len(env.Data.Rows), rows)
	}
	for _, r := range env.Data.Rows {
		if r.MC == nil {
			t.Fatalf("row %d has no mc block:\n%s", r.Index, raw)
		}
		if r.MC.Samples != 48 || r.MC.Seed != 9 {
			t.Fatalf("row %d mc identity drifted: %+v", r.Index, *r.MC)
		}
		if r.MC.YieldCell <= 0 || r.MC.YieldCell > 1 || r.MC.YieldArray < 0 || r.MC.YieldArray > 1 {
			t.Fatalf("row %d mc yields out of range: %+v", r.Index, *r.MC)
		}
	}
}

// stripRunIdentity removes the per-submission identity from a results
// document — the manager-sequential sweep_id and the per-row cached
// flags (a repeat or a resume is warm by construction) — and returns a
// canonical re-marshalling, so two runs of the same seeded sweep can
// be compared on their measured content alone.
func stripRunIdentity(t *testing.T, raw []byte) []byte {
	t.Helper()
	var env map[string]any
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("results document: %v", err)
	}
	doc, _ := env["data"].(map[string]any)
	if doc == nil {
		t.Fatalf("results document has no data envelope:\n%s", raw)
	}
	delete(doc, "sweep_id")
	rows, _ := doc["rows"].([]any)
	for _, r := range rows {
		if m, ok := r.(map[string]any); ok {
			delete(m, "cached")
		}
	}
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// createSweep submits a sweep and returns its ID without waiting.
func createSweep(t *testing.T, base, spec string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Sweep struct {
			ID string `json:"id"`
		} `json:"sweep"`
		Error json.RawMessage `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep create %d (error %s)", resp.StatusCode, env.Error)
	}
	return env.Sweep.ID
}

// waitSweepByID polls an already-created sweep to completion and
// returns the verbatim results document.
func waitSweepByID(t *testing.T, base, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for {
		var env struct {
			Sweep struct {
				State string `json:"state"`
				Done  int    `json:"done"`
			} `json:"sweep"`
		}
		getJSON(t, base+"/v1/sweeps/"+id, &env)
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

// doneGroups counts a sweep's finished groups: the distinct keys of
// its done points.
func doneGroups(t *testing.T, base, id string) int {
	t.Helper()
	var env struct {
		Sweep struct {
			Points []struct {
				Key    string `json:"key"`
				Status string `json:"status"`
			} `json:"points"`
		} `json:"sweep"`
	}
	getJSON(t, base+"/v1/sweeps/"+id, &env)
	keys := map[string]bool{}
	for _, p := range env.Sweep.Points {
		if p.Status == "done" {
			keys[p.Key] = true
		}
	}
	return len(keys)
}
