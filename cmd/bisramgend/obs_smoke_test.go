package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestObsSmoke is the end-to-end observability check behind `make
// obs-smoke`: build the real binary, boot it with pprof and the
// slow-compile log enabled, POST one compile, then assert
//
//  1. /metrics?format=prometheus parses as text exposition and carries
//     nonzero compile_stage_duration_seconds buckets,
//  2. GET /v1/debug/traces/{job_id} returns a loadable Chrome trace-event
//     document containing the queue-wait and pipeline stage spans,
//  3. /debug/pprof/ answers (the -pprof flag works end to end),
//  4. the slow-compile forensics line lands on stderr.
func TestObsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("obs smoke builds and runs the daemon binary")
	}

	bin := filepath.Join(t.TempDir(), "bisramgend")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	addr := freeAddr(t)
	var stderr bytes.Buffer
	daemon := exec.Command(bin, "-addr", addr, "-workers", "2", "-drain-timeout", "20s",
		"-pprof", "-slow-compile", "1ns", "-quiet")
	daemon.Stderr = &stderr
	if err := daemon.Start(); err != nil {
		t.Fatalf("start daemon: %v", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- daemon.Wait() }()
	defer daemon.Process.Kill() //nolint:errcheck // backstop for early t.Fatal paths

	base := "http://" + addr
	waitHealthy(t, base, exited)

	// One real compile populates every histogram and mints a trace.
	resp, err := http.Post(base+"/v1/compile", "application/json",
		strings.NewReader(`{"words":256,"bpw":8,"bpc":4,"spares":4}`))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Job struct {
			JobID string `json:"job_id"`
			State string `json:"state"`
		} `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	compiled := env.Job
	if resp.StatusCode != http.StatusOK || compiled.State != "done" || compiled.JobID == "" {
		t.Fatalf("compile: status %d %+v", resp.StatusCode, compiled)
	}

	// 1. Prometheus exposition: parse every sample line and require
	// nonzero compile_stage_duration_seconds bucket counts.
	expo := getText(t, base+"/metrics?format=prometheus")
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (NaN|[+-]?[0-9.eE+-]+|[+-]Inf)$`)
	stageBuckets := regexp.MustCompile(`^compile_stage_duration_seconds_bucket\{stage="[^"]+",le="\+Inf"\} (\d+)$`)
	var stageObs int
	for _, line := range strings.Split(strings.TrimRight(expo, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("unparseable exposition line: %q", line)
			continue
		}
		if m := stageBuckets.FindStringSubmatch(line); m != nil {
			n, _ := strconv.Atoi(m[1])
			stageObs += n
		}
	}
	if stageObs < 1 {
		t.Errorf("compile_stage_duration_seconds has no observations:\n%s", expo)
	}
	for _, want := range []string{"uptime_seconds", "go_goroutines", "build_info{", "jobs_queue_wait_seconds_count"} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// 2. The job trace is a loadable Chrome trace-event document with
	// the pipeline spans.
	traceDoc := getText(t, base+"/v1/debug/traces/"+compiled.JobID)
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(traceDoc), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, traceDoc)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"queue.wait", "compile", "compile.floorplan", "compile.analysis"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}

	// 3. pprof answers under the flag.
	if body := getText(t, base+"/debug/pprof/"); !strings.Contains(body, "profile") {
		t.Errorf("pprof index unexpected:\n%.200s", body)
	}

	// 4. The 1ns threshold makes every compile slow: the forensics dump
	// must be on stderr before shutdown.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exited non-zero: %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit within 30s of SIGTERM")
	}
	if !strings.Contains(stderr.String(), "SLOW COMPILE") {
		t.Errorf("stderr missing slow-compile forensics:\n%s", stderr.String())
	}
	fmt.Println("obs smoke ok:", len(doc.TraceEvents), "trace events,", stageObs, "stage observations")
}

// getText fetches a URL and returns the body, failing on non-200.
func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, b)
	}
	return string(b)
}
