// Command bisramgend is the BISRAMGEN compile service: an HTTP/JSON
// daemon that accepts compile requests (circuit parameters + optional
// inline technology deck + march/test specification), runs them on a
// bounded worker pool with per-job deadlines wired into the compile
// pipeline's context-bounded kernels, and serves results from a
// content-addressed cache keyed by the canonical SHA-256 of the
// fully-validated inputs. Identical requests in flight are
// deduplicated (singleflight); identical requests over time are cache
// hits.
//
// Example:
//
//	bisramgend -addr :8047 -workers 4 -cache-mb 256 -deadline 2m
//	curl -s localhost:8047/v1/compile -d '{"words":4096,"bpw":32,"bpc":8,"spares":4}'
//
// On SIGINT/SIGTERM the daemon stops accepting work, drains queued and
// running jobs (bounded by -drain-timeout), and exits 0 on a clean
// drain.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/sweep"
)

func main() {
	var (
		addr         = flag.String("addr", ":8047", "listen address")
		workers      = flag.Int("workers", runtime.NumCPU(), "compile worker pool size")
		queueDepth   = flag.Int("queue", 256, "max queued (not yet running) jobs; overload returns 429")
		cacheMB      = flag.Int64("cache-mb", 256, "memory cache budget in MiB; it holds reports and artifact sizes (0 disables caching)")
		deadline     = flag.Duration("deadline", 2*time.Minute, "per-job compile deadline")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM/SIGINT")
		quiet        = flag.Bool("quiet", false, "suppress per-request log lines")
		enablePprof  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		slowCompile  = flag.Duration("slow-compile", 0, "dump the span tree of any compile slower than this (0 = off)")
		storeDir     = flag.String("store-dir", "", "disk artifact store directory (empty disables persistence; restarts over the same directory stay warm)")
		storeMB      = flag.Int64("store-mb", 0, "disk store byte budget in MiB (0 = unbounded; LRU GC above the budget)")
		compilePar   = flag.Int("compile-par", runtime.GOMAXPROCS(0), "per-compile goroutine fan-out for requests that don't name one (output is byte-identical at any value; 1 = serial)")
		journalDir   = flag.String("sweep-journal-dir", "", "sweep write-ahead journal directory; restarts resume in-flight sweeps (default <store-dir>/sweeps, empty store-dir disables)")
		chaosSpec    = flag.String("chaos-spec", "", "TESTING ONLY: fault-injection spec, inline JSON or a file path; enables deterministic chaos drills")
		debugStacks  = flag.Bool("debug-stacks", false, "mount GET /v1/debug/stacks (full goroutine dump; also mounted by -pprof)")
		peersList    = flag.String("peers", "", "comma-separated base URLs of every fleet member (including this one); enables federation: ring-peer artifact fetch on store miss and shard identity in /healthz and /metrics")
		selfURL      = flag.String("self", "", "this daemon's own base URL as it appears in -peers (required with -peers)")
		gatewayURL   = flag.String("gateway", "", "advertised gateway base URL, reported in /healthz (informational)")
		probeEvery   = flag.Duration("probe-interval", 2*time.Second, "peer health probe interval when -peers is set")
	)
	flag.Parse()

	inj, err := chaos.LoadSpec(*chaosSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bisramgend: chaos spec: %v\n", err)
		os.Exit(1)
	}
	if inj != nil {
		fmt.Fprintln(os.Stderr, "bisramgend: CHAOS INJECTION ENABLED — not for production use")
	}

	// One shared telemetry registry: the queue's wait histograms and the
	// server's stage/cache/http instruments land in the same /metrics
	// exposition.
	reg := obs.NewRegistry()
	q := jobs.New(jobs.Config{
		Workers:  *workers,
		Capacity: *queueDepth,
		Deadline: *deadline,
		Registry: reg,
		Chaos:    inj,
	})
	c := cache.New(*cacheMB << 20)
	c.SetChaos(inj)
	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(store.Config{Dir: *storeDir, BudgetBytes: *storeMB << 20, Chaos: inj})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bisramgend: opening store %s: %v\n", *storeDir, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bisramgend: disk store %s warm with %d objects\n",
			*storeDir, st.Stats().ScannedAtStartup)
	}
	var journal *sweep.Journal
	if jd := *journalDir; jd != "" || *storeDir != "" {
		if jd == "" {
			jd = filepath.Join(*storeDir, "sweeps")
		}
		journal, err = sweep.OpenJournal(jd)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bisramgend: opening sweep journal %s: %v\n", jd, err)
			os.Exit(1)
		}
	}
	// Federation: build the fleet view and let the store pull missing
	// objects off ring peers before recompiling.
	var clusterView server.ClusterInfo
	if *peersList != "" {
		members := strings.Split(*peersList, ",")
		for i := range members {
			members[i] = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(members[i]), "/"))
		}
		self := strings.TrimSuffix(strings.TrimSpace(*selfURL), "/")
		ring, err := cluster.NewRing(members, cluster.DefaultVNodes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bisramgend: -peers: %v\n", err)
			os.Exit(1)
		}
		found := false
		for _, m := range ring.Members() {
			if m == self {
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "bisramgend: -self %q is not one of -peers %v\n", self, ring.Members())
			os.Exit(1)
		}
		tab := cluster.NewTable(ring)
		pc := cluster.NewPeers(tab, self)
		if st != nil {
			st.SetPeerFetch(pc.FetchObject)
		}
		stopProbing := tab.StartProbing(*probeEvery)
		defer stopProbing()
		clusterView = cluster.View{SelfURL: self, GatewayURL: *gatewayURL, Table: tab}
		fmt.Fprintf(os.Stderr, "bisramgend: federated as %s in a %d-member ring\n", self, tab.PeersTotal())
	}
	// A nil interface, not a nil *os.File, so -quiet skips request
	// logging entirely.
	var logW io.Writer = os.Stderr
	if *quiet {
		logW = nil
	}
	srv := server.New(server.Config{
		Queue:         q,
		Cache:         c,
		Store:         st,
		LogWriter:     logW,
		Metrics:       reg,
		EnablePprof:   *enablePprof,
		EnableStacks:  *debugStacks || *enablePprof,
		SlowCompile:   *slowCompile,
		SlowLogWriter: os.Stderr,
		SweepJournal:  journal,
		Chaos:         inj,
		Cluster:       clusterView,

		CompileParallelism: *compilePar,
	})
	if journal != nil {
		if n, err := srv.ResumeSweeps(); err != nil {
			fmt.Fprintf(os.Stderr, "bisramgend: sweep resume: %v\n", err)
		} else if n > 0 {
			fmt.Fprintf(os.Stderr, "bisramgend: resumed %d interrupted sweep(s) from %s\n", n, journal.Dir())
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if code := server.Serve("bisramgend", httpSrv, q, *drainTimeout, fmt.Sprintf(
		"listening on %s (%d workers, %d MiB cache, %v deadline)", *addr, *workers, *cacheMB, *deadline)); code != 0 {
		os.Exit(code)
	}
}
