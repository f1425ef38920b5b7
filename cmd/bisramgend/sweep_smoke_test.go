package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// syncBuf is a bytes.Buffer safe to read while the daemon's stderr
// copier is still writing (the chaos drills inspect logs of a live
// process).
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// daemonProc wraps one running daemon generation for the multi-restart
// smoke tests.
type daemonProc struct {
	cmd    *exec.Cmd
	stderr *syncBuf
	base   string
	exited chan error
}

// startDaemon boots the built binary with extra flags and waits for
// /healthz.
func startDaemon(t *testing.T, bin string, extra ...string) *daemonProc {
	t.Helper()
	addr := freeAddr(t)
	args := append([]string{"-addr", addr, "-workers", "2", "-drain-timeout", "20s", "-quiet"}, extra...)
	var stderr syncBuf
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start daemon: %v", err)
	}
	d := &daemonProc{cmd: cmd, stderr: &stderr, base: "http://" + addr, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	t.Cleanup(func() { cmd.Process.Kill() }) //nolint:errcheck // backstop for early t.Fatal paths
	waitHealthy(t, d.base, d.exited)
	return d
}

// stop SIGTERMs the daemon and requires a clean exit.
func (d *daemonProc) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			t.Fatalf("daemon exited non-zero: %v\nstderr:\n%s", err, d.stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit within 30s of SIGTERM\nstderr:\n%s", d.stderr.String())
	}
}

// buildDaemon compiles the real binary once per test.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bisramgend")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// storeMetrics is the store member of the /metrics JSON document.
type storeMetrics struct {
	Store struct {
		Hits             uint64 `json:"hits"`
		Puts             uint64 `json:"puts"`
		Corrupt          uint64 `json:"corrupt"`
		Entries          int    `json:"entries"`
		ScannedAtStartup int    `json:"scanned_at_startup"`
	} `json:"store"`
	Queue struct {
		Completed uint64 `json:"completed"`
	} `json:"queue"`
}

// TestStoreRestartSmoke is the restart-warmness check behind `make
// sweep-smoke`: a daemon run over a -store-dir persists its compiles,
// a restarted daemon over the same directory serves them from disk
// (cache_tier "hit-disk", within a fixed time budget), and a truncated
// store file is quarantined — recompiled, never served corrupt.
func TestStoreRestartSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("restart smoke builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	// A real-sized array, whose object is about 220 KB. Measured on a
	// 2-vCPU x86-64 host over 6 runs: the cold compile took 4.9–5.9 ms
	// and the disk hit 0.21–0.41 ms. The hit reads and verifies only the
	// object's header, manifest and report; most of its time is the
	// fresh process's first request.
	const req = `{"words":4096,"bpw":32,"bpc":8,"spares":4}`
	// hitBudgetMs bounds the disk hit. The tier and the store counters
	// show that the hit compiled nothing; the budget shows that it stays
	// a lookup. It is fixed rather than a ratio to the cold compile,
	// which falls with every compiler speedup while the hit's
	// first-request cost does not: the slowest hits on record took
	// 2.0 ms, and 3.26 ms with the race-enabled suite running beside
	// the daemon.
	const hitBudgetMs = 5.0

	// Generation 1: cold compile, persisted on the way out.
	d1 := startDaemon(t, bin, "-store-dir", dir)
	first := postCompile(t, d1.base, req)
	if first.Cached {
		t.Fatal("generation 1 first compile reported cached=true")
	}
	var m1 storeMetrics
	getJSON(t, d1.base+"/metrics", &m1)
	if m1.Store.Puts < 1 || m1.Store.Entries < 1 {
		t.Fatalf("store not populated after compile: %+v", m1.Store)
	}
	d1.stop(t)
	obj := filepath.Join(dir, "objects", first.Key+".entry")
	if _, err := os.Stat(obj); err != nil {
		t.Fatalf("persisted object missing after drain: %v", err)
	}

	// Generation 2: a fresh process over the same directory must be
	// warm — the same request is a disk hit within the budget, and the
	// store counters say so.
	d2 := startDaemon(t, bin, "-store-dir", dir)
	second := postCompile(t, d2.base, req)
	if !second.Cached || second.CacheTier != "hit-disk" {
		t.Fatalf("restart not warm: cached=%v tier=%q", second.Cached, second.CacheTier)
	}
	if second.Key != first.Key {
		t.Fatalf("content keys disagree across restart: %q vs %q", first.Key, second.Key)
	}
	t.Logf("cold compile %.3f ms, warm disk hit %.3f ms", first.ElapsedMs, second.ElapsedMs)
	if second.ElapsedMs > hitBudgetMs {
		t.Errorf("disk hit took %.3f ms, over its %.0f ms budget (cold compile %.3f ms)",
			second.ElapsedMs, hitBudgetMs, first.ElapsedMs)
	}
	var m2 storeMetrics
	getJSON(t, d2.base+"/metrics", &m2)
	if m2.Store.ScannedAtStartup != 1 || m2.Store.Hits < 1 {
		t.Errorf("store counters after restart: %+v (want scanned 1, hits >= 1)", m2.Store)
	}
	// A repeat inside the same process is a memory hit (promotion).
	third := postCompile(t, d2.base, req)
	if !third.Cached || third.CacheTier != "hit" {
		t.Errorf("promoted entry not a memory hit: cached=%v tier=%q", third.Cached, third.CacheTier)
	}
	d2.stop(t)

	// Generation 3: corrupt the object on disk. The daemon must
	// quarantine it and recompile rather than serve damaged bytes.
	b, err := os.ReadFile(obj)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(obj, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	d3 := startDaemon(t, bin, "-store-dir", dir)
	fourth := postCompile(t, d3.base, req)
	if fourth.Cached {
		t.Fatal("corrupted object served as a cache hit")
	}
	if fourth.Key != first.Key {
		t.Fatalf("recompile minted a different key: %q vs %q", fourth.Key, first.Key)
	}
	var m3 storeMetrics
	getJSON(t, d3.base+"/metrics", &m3)
	if m3.Store.Corrupt < 1 {
		t.Errorf("corrupt counter not incremented: %+v", m3.Store)
	}
	quarantined, err := filepath.Glob(filepath.Join(dir, "quarantine", first.Key+".*"))
	if err != nil || len(quarantined) == 0 {
		t.Errorf("no quarantined file for %s (err %v)", first.Key, err)
	}
	if _, err := os.Stat(obj); err != nil {
		t.Errorf("recompile did not re-persist the object: %v", err)
	}
	d3.stop(t)
}

// TestSweepSmoke drives the batch API end to end against the real
// daemon: a spares x defects sweep expands, dedups and completes; an
// identical repeat sweep is served entirely from cache with zero new
// compiles; and the experiments growth-factor tables built from
// service-fetched factors are byte-identical to locally compiled ones.
func TestSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep smoke builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	d := startDaemon(t, bin, "-store-dir", t.TempDir())
	c := sweep.NewClient(d.base)

	spec := sweep.Spec{
		Base: experiments.Fig45Base(),
		Axes: sweep.Axes{Spares: []int{0, 4, 8}, Defects: []float64{0, 10, 20}},
	}
	st, err := c.CreateSweep(spec)
	if err != nil {
		t.Fatalf("create sweep: %v", err)
	}
	if st.Total != 9 || st.UniqueCompiles != 3 {
		t.Fatalf("expansion: total %d unique %d, want 9/3", st.Total, st.UniqueCompiles)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err = c.WaitSweep(ctx, st.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("wait sweep: %v", err)
	}
	if st.State != "done" || st.Failed != 0 {
		t.Fatalf("sweep terminal state %q (failed %d)", st.State, st.Failed)
	}
	res, err := c.SweepResults(st.ID)
	if err != nil {
		t.Fatalf("results: %v", err)
	}
	if !res.Complete || len(res.Rows) != 9 {
		t.Fatalf("results incomplete: complete=%v rows=%d", res.Complete, len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Spares > 0 && row.Defects > 0 && row.YieldBISR < row.YieldNoRepair {
			t.Errorf("row %d: BISR yield %.4f below no-repair %.4f", row.Index, row.YieldBISR, row.YieldNoRepair)
		}
	}

	// An identical repeat sweep must be pure cache: every point cached,
	// no new queue completions.
	var before storeMetrics
	getJSON(t, d.base+"/metrics", &before)
	st2, err := c.CreateSweep(spec)
	if err != nil {
		t.Fatalf("repeat sweep: %v", err)
	}
	st2, err = c.WaitSweep(ctx, st2.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("wait repeat sweep: %v", err)
	}
	if st2.State != "done" || st2.Cached != st2.Total {
		t.Fatalf("repeat sweep not fully cached: state %q cached %d/%d", st2.State, st2.Cached, st2.Total)
	}
	var after storeMetrics
	getJSON(t, d.base+"/metrics", &after)
	if after.Queue.Completed != before.Queue.Completed {
		t.Errorf("repeat sweep ran %d compiles, want 0",
			after.Queue.Completed-before.Queue.Completed)
	}

	// The service path is a drop-in source for the paper's evaluation:
	// tables from service-fetched growth factors must be byte-identical
	// to locally compiled ones.
	gfSvc, err := experiments.GrowthFactorsService(d.base, 2*time.Minute)
	if err != nil {
		t.Fatalf("growth factors via service: %v", err)
	}
	gfLocal, err := experiments.GrowthFactors()
	if err != nil {
		t.Fatalf("growth factors locally: %v", err)
	}
	for _, s := range []int{0, 4, 8, 16} {
		if gfSvc[s] != gfLocal[s] {
			t.Errorf("growth factor %d spares: service %v local %v", s, gfSvc[s], gfLocal[s])
		}
	}
	type build func(map[int]float64) (string, error)
	builders := map[string]build{
		"FIG4": func(gf map[int]float64) (string, error) {
			tb, err := experiments.Fig4With(gf, 40, 2)
			if err != nil {
				return "", err
			}
			return tb.String(), nil
		},
		"TAB2": func(gf map[int]float64) (string, error) {
			tb, err := experiments.Table2With(gf)
			if err != nil {
				return "", err
			}
			return tb.String(), nil
		},
		"TAB3": func(gf map[int]float64) (string, error) {
			tb, err := experiments.Table3With(gf)
			if err != nil {
				return "", err
			}
			return tb.String(), nil
		},
		"WAFER": func(gf map[int]float64) (string, error) {
			tb, _, err := experiments.WaferStudyWith(gf)
			if err != nil {
				return "", err
			}
			return tb.String(), nil
		},
	}
	for name, f := range builders {
		svc, err := f(gfSvc)
		if err != nil {
			t.Fatalf("%s from service factors: %v", name, err)
		}
		local, err := f(gfLocal)
		if err != nil {
			t.Fatalf("%s from local factors: %v", name, err)
		}
		if svc != local {
			t.Errorf("%s differs between service and local growth factors:\nservice:\n%s\nlocal:\n%s",
				name, svc, local)
		}
	}
	d.stop(t)
}
