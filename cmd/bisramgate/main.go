// Command bisramgate is the BISRAMGEN federation gateway: the daemon's
// own /v1 surface (internal/server) over a fleet backend
// (internal/cluster) in front of bisramgend shards. Compile
// submissions and key-addressed reads route to the content key's
// consistent-hash owner (failing over to ring successors while a shard
// is down), job reads follow the shard that accepted the job, and
// sweeps fan their points across the fleet — merged into a results
// document byte-identical to a single daemon's, because every shard
// derives the same bytes from the same canonical key. The catalogs
// come from the gateway's own build; GET /metrics?scope=fleet merges
// every shard's scrape.
//
// Example:
//
//	bisramgate -addr :8040 -shards http://localhost:8047,http://localhost:8048,http://localhost:8049
//	curl -s localhost:8040/v1/compile -d '{"words":4096,"bpw":32,"bpc":8,"spares":4}'
//
// On SIGINT/SIGTERM the gateway stops accepting work, finishes
// in-flight exchanges and sweep routing (bounded by -drain-timeout),
// and exits 0 on a clean drain.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8040", "listen address")
		shards       = flag.String("shards", "", "comma-separated base URLs of the shard fleet (required)")
		routeWorkers = flag.Int("route-workers", 4*runtime.NumCPU(), "sweep fan-out concurrency (router jobs proxying point compiles)")
		queueDepth   = flag.Int("queue", 1024, "max queued router jobs; overload returns 429")
		deadline     = flag.Duration("deadline", 5*time.Minute, "per-point routing deadline")
		probeEvery   = flag.Duration("probe-interval", 2*time.Second, "shard health probe interval")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM/SIGINT")
		chaosSpec    = flag.String("chaos-spec", "", "TESTING ONLY: fault-injection spec, inline JSON or a file path; enables deterministic chaos drills")
	)
	flag.Parse()

	if *shards == "" {
		fmt.Fprintln(os.Stderr, "bisramgate: -shards is required")
		os.Exit(1)
	}
	members := strings.Split(*shards, ",")
	for i := range members {
		members[i] = strings.TrimSuffix(strings.TrimSpace(members[i]), "/")
	}
	ring, err := cluster.NewRing(members, cluster.DefaultVNodes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bisramgate: -shards: %v\n", err)
		os.Exit(1)
	}

	inj, err := chaos.LoadSpec(*chaosSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bisramgate: chaos spec: %v\n", err)
		os.Exit(1)
	}
	if inj != nil {
		fmt.Fprintln(os.Stderr, "bisramgate: CHAOS INJECTION ENABLED — not for production use")
	}

	reg := obs.NewRegistry()
	tab := cluster.NewTable(ring)
	q := jobs.New(jobs.Config{
		Workers:  *routeWorkers,
		Capacity: *queueDepth,
		Deadline: *deadline,
		Registry: reg,
	})
	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Table:    tab,
		Queue:    q,
		Registry: reg,
		Chaos:    inj,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bisramgate: %v\n", err)
		os.Exit(1)
	}
	stopProbing := tab.StartProbing(*probeEvery)
	defer stopProbing()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if code := server.Serve("bisramgate", httpSrv, q, *drainTimeout, fmt.Sprintf(
		"listening on %s in front of %d shard(s) (%d up)", *addr, tab.PeersTotal(), tab.PeersUp())); code != 0 {
		os.Exit(code)
	}
}
