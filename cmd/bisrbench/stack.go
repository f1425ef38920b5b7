package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/sweep"
)

// Daemon and gateway defaults, as cmd/bisramgend and cmd/bisramgate
// set them. Request logging is off (-quiet): a log line per request
// would time stderr, not the service.
const (
	daemonQueue       = 256
	daemonDeadline    = 2 * time.Minute
	daemonCacheMB     = 256
	gatewayQueue      = 1024
	gatewayDeadline   = 5 * time.Minute
	probeInterval     = 2 * time.Second
	drainBudget       = 30 * time.Second
	clientTimeout     = 60 * time.Second
	hitServeCacheMB   = 16
	fleetShards       = 2
	gatewayRouteScale = 4 // route-workers = 4 × NumCPU
)

// node is one in-process bisramgend: its own registry, queue, memory
// cache, disk store and HTTP listener.
type node struct {
	reg   *obs.Registry
	queue *jobs.Queue
	cache *cache.Cache
	store *store.Store
	ts    *httptest.Server
	table *cluster.Table // the shard's fleet view; nil off the fleet
	stop  func()         // stops the shard's health prober
}

// gatewayNode is the in-process bisramgate.
type gatewayNode struct {
	reg   *obs.Registry
	queue *jobs.Queue
	ts    *httptest.Server
	stop  func()
}

// stack is the service under test: one daemon, or a gateway over
// federated shards. Clients talk to url.
type stack struct {
	dir    string
	nodes  []*node
	gw     *gatewayNode
	url    string
	client *http.Client
}

// newHTTPClient is the load generator's client: at most nproc
// connections per host, no proxy, no compression.
func newHTTPClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}
}

// newDaemonStack starts one daemon with a cacheMB memory tier over a
// fresh store directory.
func newDaemonStack(cacheMB int64, compilePar int) (*stack, error) {
	dir, err := os.MkdirTemp("", "bisrbench-")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir, client: newHTTPClient()}
	ts := httptest.NewUnstartedServer(nil)
	n, err := newNode(filepath.Join(dir, "store"), cacheMB, compilePar, ts, "", nil)
	if err != nil {
		ts.Close()
		s.close()
		return nil, err
	}
	s.nodes = append(s.nodes, n)
	s.url = ts.URL
	return s, nil
}

// newFleetStack starts fleetShards federated shards (ring, peer fetch,
// health probes) behind a gateway.
func newFleetStack(compilePar int) (*stack, error) {
	dir, err := os.MkdirTemp("", "bisrbench-")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir, client: newHTTPClient()}
	// Listeners first: every shard must know every member's URL.
	var servers []*httptest.Server
	var members []string
	for i := 0; i < fleetShards; i++ {
		ts := httptest.NewUnstartedServer(nil)
		servers = append(servers, ts)
		members = append(members, "http://"+ts.Listener.Addr().String())
	}
	ring, err := cluster.NewRing(members, cluster.DefaultVNodes)
	if err != nil {
		for _, ts := range servers {
			ts.Close()
		}
		s.close()
		return nil, err
	}
	for i, ts := range servers {
		n, err := newNode(filepath.Join(dir, fmt.Sprintf("store-%d", i)), daemonCacheMB, compilePar, ts, members[i], ring)
		if err != nil {
			for _, rest := range servers[i:] {
				rest.Close()
			}
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
	}
	// Probe only once every shard serves: the first probe round is
	// synchronous, and a listener nobody serves yet would time out and
	// start the fleet with a peer marked down.
	for _, n := range s.nodes {
		n.stop = n.table.StartProbing(probeInterval)
	}

	reg := obs.NewRegistry()
	tab := cluster.NewTable(ring)
	q := jobs.New(jobs.Config{
		Workers:  gatewayRouteScale * runtime.NumCPU(),
		Capacity: gatewayQueue,
		Deadline: gatewayDeadline,
		Registry: reg,
	})
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Table: tab, Queue: q, Registry: reg})
	if err != nil {
		q.Shutdown(context.Background())
		s.close()
		return nil, err
	}
	s.gw = &gatewayNode{reg: reg, queue: q, stop: tab.StartProbing(probeInterval)}
	s.gw.ts = httptest.NewServer(gw.Handler())
	s.url = s.gw.ts.URL
	return s, nil
}

// newNode wires one daemon the way cmd/bisramgend does and starts ts
// on it. A non-nil ring federates it as self; the caller starts its
// health prober.
func newNode(storeDir string, cacheMB int64, compilePar int, ts *httptest.Server, self string, ring *cluster.Ring) (*node, error) {
	st, err := store.Open(store.Config{Dir: storeDir})
	if err != nil {
		return nil, err
	}
	journal, err := sweep.OpenJournal(filepath.Join(storeDir, "sweeps"))
	if err != nil {
		return nil, err
	}
	n := &node{
		reg:   obs.NewRegistry(),
		cache: cache.New(cacheMB << 20),
		store: st,
		ts:    ts,
	}
	n.queue = jobs.New(jobs.Config{
		Workers:  runtime.NumCPU(),
		Capacity: daemonQueue,
		Deadline: daemonDeadline,
		Registry: n.reg,
	})
	cfg := server.Config{
		Queue:              n.queue,
		Cache:              n.cache,
		Store:              st,
		Metrics:            n.reg,
		SweepJournal:       journal,
		CompileParallelism: compilePar,
	}
	if ring != nil {
		n.table = cluster.NewTable(ring)
		st.SetPeerFetch(cluster.NewPeers(n.table, self).FetchObject)
		cfg.Cluster = cluster.View{SelfURL: self, Table: n.table}
	}
	ts.Config.Handler = server.New(cfg).Handler()
	ts.Start()
	return n, nil
}

// close stops every listener, drains every queue and removes the
// store directories.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainBudget)
	defer cancel()
	var errs []error
	if g := s.gw; g != nil {
		g.ts.Close()
		g.stop()
		errs = append(errs, g.queue.Shutdown(ctx))
	}
	for _, n := range s.nodes {
		n.ts.Close()
		if n.stop != nil {
			n.stop()
		}
		errs = append(errs, n.queue.Shutdown(ctx))
	}
	s.client.CloseIdleConnections()
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// do sends one request and returns the status, the whole body and the
// wall-clock latency to the last body byte.
func (s *stack) do(method, url string, body []byte) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, time.Since(t0), err
}
