package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// chaosMetrics extends storeMetrics with the fields the drills assert.
type chaosMetrics struct {
	Store *struct {
		Corrupt           uint64 `json:"corrupt"`
		QuarantineObjects int    `json:"quarantine_objects"`
	} `json:"store"`
	Queue struct {
		Completed uint64 `json:"completed"`
		Rejected  uint64 `json:"rejected"`
	} `json:"queue"`
}

// TestChaosSmoke is the resilience drill behind `make chaos-smoke`:
// three staged failures against the real binary.
//
//  1. Crash/resume: kill -9 a daemon mid-sweep; a restart over the
//     same store resumes the sweep under its original ID, recompiles
//     only unfinished points, and produces rows byte-identical to an
//     uninterrupted run.
//  2. Injected corruption: a chaos-spec'd store.read bit-flip is
//     detected, quarantined and recompiled — never served.
//  3. Overload burst: a stalled one-worker/one-slot daemon sheds
//     excess load with 429 + Retry-After while the retrying client
//     rides the burst out.
func TestChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos smoke builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	t.Run("CrashResume", func(t *testing.T) { chaosCrashResume(t, bin) })
	t.Run("Corruption", func(t *testing.T) { chaosCorruption(t, bin) })
	t.Run("Overload", func(t *testing.T) { chaosOverload(t, bin) })
}

func chaosCrashResume(t *testing.T, bin string) {
	spec := sweep.Spec{
		Base: experiments.Fig45Base(),
		Axes: sweep.Axes{Spares: []int{0, 4, 8, 16}, Defects: []float64{0, 10}},
	}
	const unique = 4 // spares axis only; defects is analysis-only

	// Reference: the same sweep on an undisturbed daemon.
	ref := startDaemon(t, bin, "-store-dir", t.TempDir())
	refClient := sweep.NewClient(ref.base)
	want := runSweep(t, refClient, spec)
	ref.stop(t)

	// Victim generation: one worker and an injected 400 ms stage stall
	// per compile, so the sweep is reliably mid-flight when the process
	// dies. SIGKILL — no drain, no cleanup.
	dir := t.TempDir()
	d1 := startDaemon(t, bin, "-store-dir", dir, "-workers", "1",
		"-chaos-spec", `{"rules":[{"point":"compile.stage.floorplan","mode":"delay","delay_ms":400}]}`)
	c1 := sweep.NewClient(d1.base)
	st, err := c1.CreateSweep(spec)
	if err != nil {
		t.Fatalf("create sweep: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for doneGroups(t, c1, st.ID) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no group finished within 60s\nstderr:\n%s", d1.stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	survivors := doneGroups(t, c1, st.ID)
	if survivors >= unique {
		t.Fatalf("sweep finished before the kill (%d groups done); stall too short", survivors)
	}
	if err := d1.cmd.Process.Kill(); err != nil { // SIGKILL, mid-compile
		t.Fatal(err)
	}
	<-d1.exited

	// Restart over the same store: the journal must resume the sweep
	// under its original ID and replay finished groups from disk.
	d2 := startDaemon(t, bin, "-store-dir", dir)
	if !strings.Contains(d2.stderr.String(), "resumed 1 interrupted sweep") {
		t.Fatalf("restart did not announce a resume\nstderr:\n%s", d2.stderr.String())
	}
	c2 := sweep.NewClient(d2.base)
	got := waitSweepDone(t, c2, st.ID)

	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("resumed rows %d, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		g, w := got.Rows[i], want.Rows[i]
		// Cached differs by construction (resume replays journaled groups
		// through the store); every measured column must be identical.
		g.Cached, w.Cached = false, false
		if g != w {
			t.Fatalf("row %d drifted across crash/resume:\n got %+v\nwant %+v", i, g, w)
		}
	}

	// Zero recompiles of journaled points: the restarted daemon ran at
	// most the compiles the crash interrupted.
	var m chaosMetrics
	getJSON(t, d2.base+"/metrics", &m)
	if max := uint64(unique - survivors); m.Queue.Completed > max {
		t.Errorf("restart recompiled finished points: %d compiles, want <= %d", m.Queue.Completed, max)
	}
	// The finished sweep's journal record is gone.
	if recs, _ := filepath.Glob(filepath.Join(dir, "sweeps", "*.sweep")); len(recs) != 0 {
		t.Errorf("finished sweep left journal records %v", recs)
	}
	d2.stop(t)
}

func chaosCorruption(t *testing.T, bin string) {
	dir := t.TempDir()
	const req = `{"words":1024,"bpw":16,"bpc":4,"spares":4}`

	// Populate the store, drain cleanly.
	d1 := startDaemon(t, bin, "-store-dir", dir)
	first := postCompile(t, d1.base, req)
	d1.stop(t)

	// Restart with a one-shot read-path bit-flip. The daemon must catch
	// the damage (checksum), quarantine the object, and recompile —
	// the client never sees corrupt bytes, only a cache miss.
	d2 := startDaemon(t, bin, "-store-dir", dir,
		"-chaos-spec", `{"rules":[{"point":"store.read","mode":"corrupt","max":1}]}`)
	second := postCompile(t, d2.base, req)
	if second.Cached {
		t.Fatal("corrupted object served as a cache hit")
	}
	if second.Key != first.Key {
		t.Fatalf("recompile minted a different key: %q vs %q", second.Key, first.Key)
	}
	var m chaosMetrics
	getJSON(t, d2.base+"/metrics", &m)
	if m.Store == nil || m.Store.Corrupt < 1 {
		t.Errorf("corrupt counter not incremented: %+v", m.Store)
	}
	if m.Store != nil && m.Store.QuarantineObjects < 1 {
		t.Errorf("quarantine gauge %d, want >= 1", m.Store.QuarantineObjects)
	}
	// After quarantine + recompile the entry is clean again.
	third := postCompile(t, d2.base, req)
	if !third.Cached {
		t.Error("recompiled entry not served from cache")
	}
	d2.stop(t)
}

func chaosOverload(t *testing.T, bin string) {
	// One worker, one queue slot, and the first two jobs stalled 1.5 s
	// each: a burst must shed with 429 + Retry-After.
	d := startDaemon(t, bin, "-workers", "1", "-queue", "1",
		"-chaos-spec", `{"rules":[{"point":"queue.stall","mode":"delay","delay_ms":1500,"max":2}]}`)

	body := func(i int) string {
		return fmt.Sprintf(`{"words":%d,"bpw":8,"bpc":4,"spares":4}`, 256<<i)
	}
	const burst = 6
	statuses := make([]int, burst)
	retryAfters := make([]string, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(d.base+"/v1/compile", "application/json", strings.NewReader(body(i)))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfters[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	shed := 0
	for i, code := range statuses {
		if code != http.StatusTooManyRequests {
			continue
		}
		shed++
		if retryAfters[i] == "" {
			t.Errorf("429 response %d missing Retry-After", i)
		}
	}
	if shed == 0 {
		t.Fatalf("overload burst shed nothing: statuses %v", statuses)
	}
	var m chaosMetrics
	getJSON(t, d.base+"/metrics", &m)
	if m.Queue.Rejected < uint64(shed) {
		t.Errorf("queue.rejected = %d, want >= %d", m.Queue.Rejected, shed)
	}

	// The retrying client rides the same storm out: a fresh body
	// submitted while the stall drains must still complete.
	c := sweep.NewClient(d.base)
	c.Retry.BaseDelay = 20 * time.Millisecond
	if _, err := c.Compile([]byte(`{"words":512,"bpw":16,"bpc":4,"spares":8}`)); err != nil {
		t.Fatalf("retrying client failed to ride out the burst: %v", err)
	}
	d.stop(t)
}

// runSweep creates a sweep, waits for it, and returns its rows.
func runSweep(t *testing.T, c *sweep.Client, spec sweep.Spec) *sweep.Results {
	t.Helper()
	st, err := c.CreateSweep(spec)
	if err != nil {
		t.Fatalf("create sweep: %v", err)
	}
	return waitSweepDone(t, c, st.ID)
}

// waitSweepDone polls a sweep to its terminal state and fetches
// complete results.
func waitSweepDone(t *testing.T, c *sweep.Client, id string) *sweep.Results {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := c.WaitSweep(ctx, id, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("wait sweep %s: %v", id, err)
	}
	if st.State != "done" || st.Failed != 0 {
		t.Fatalf("sweep %s terminal state %q (failed %d)", id, st.State, st.Failed)
	}
	res, err := c.SweepResults(id)
	if err != nil {
		t.Fatalf("results %s: %v", id, err)
	}
	if !res.Complete {
		t.Fatalf("results for %s incomplete", id)
	}
	return res
}

// doneGroups counts a sweep's finished groups: the distinct keys of
// its done points.
func doneGroups(t *testing.T, c *sweep.Client, id string) int {
	t.Helper()
	st, err := c.SweepStatus(id)
	if err != nil {
		t.Fatalf("sweep %s status: %v", id, err)
	}
	keys := map[string]bool{}
	for _, p := range st.Points {
		if p.Status == "done" {
			keys[p.Key] = true
		}
	}
	return len(keys)
}
