package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// workload is one traffic mix. Every workload is a closed loop: each
// client sends its next request only after the previous one finished.
type workload struct {
	name string
	why  string
	// primary is the op kind behind latency_p50_ms / latency_p90_ms.
	primary string
	// count is the measured op count of a run at -scale 1, and rate
	// the ops per second this workload sustains on the reference 2-core
	// box: -seconds S runs rate×S ops. Fixing the work rather than the
	// time keeps both sides of a comparison on the same inputs, and
	// keeps peak_rss_mb from growing with throughput (the daemon
	// retains every job's entry). fleet-sweep counts iterations.
	count int
	rate  float64
	setup func(b *bench) error
	run   func(b *bench, ph *phase)
}

var workloads = []workload{
	{
		name:    "cold-compile",
		why:     "one designer sends unique compiles: compiler stages, artifact rendering and store writes, with both cache tiers missing",
		primary: "compile",
		count:   1500,
		rate:    90,
		setup: func(b *bench) error {
			if err := b.start(newDaemonStack(daemonCacheMB, b.opts.compilePar)); err != nil {
				return err
			}
			b.drawer = newDrawer(b.opts.seed, streamCold)
			return b.warmUp()
		},
		run: func(b *bench, ph *phase) {
			b.compileLoop(ph, ph.newTally(), ph.more)
		},
	},
	{
		name:    "hit-serve",
		why:     "two clients repeat a 256-key Zipf working set over a 16 MiB cache: HTTP, canon, cache and verified disk reads, no compiles",
		primary: "hit",
		count:   60000,
		rate:    7000,
		setup:   setupWorkingSet,
		run: func(b *bench, ph *phase) {
			clients := runtime.NumCPU()
			parallel(clients, func(c int) {
				b.hitLoop(ph, ph.newTally(), newZipfReader(b.opts.seed, c, b.set), func(i int) bool {
					return ph.more(i * clients)
				})
			})
		},
	},
	{
		name:    "mixed-rw",
		why:     "one client writes unique compiles while another reads Zipf hits: store puts and compile CPU beside the hit path",
		primary: "hit",
		count:   500,
		rate:    70,
		setup:   setupWorkingSet,
		run: func(b *bench, ph *phase) {
			var writing atomic.Bool
			writing.Store(true)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer writing.Store(false)
				b.compileLoop(ph, ph.newTally(), ph.more)
			}()
			// The reader keeps going until the writer stops.
			b.hitLoop(ph, ph.newTally(), newZipfReader(b.opts.seed, 0, b.set), func(int) bool {
				return writing.Load()
			})
			wg.Wait()
		},
	},
	{
		name:    "fleet-sweep",
		why:     "a gateway over two federated shards: routed compile and hit, cold and repeat 64-point sweeps, Monte-Carlo yield rows",
		primary: "iteration",
		count:   100,
		rate:    8,
		setup: func(b *bench) error {
			if err := b.start(newFleetStack(b.opts.compilePar)); err != nil {
				return err
			}
			b.drawer = newDrawer(b.opts.seed, streamFleet)
			return b.warmUp()
		},
		run: func(b *bench, ph *phase) {
			t := ph.newTally()
			for i := 0; ph.more(i); i++ {
				it, err := b.drawer.nextIteration()
				if err != nil {
					t.fail(&failure{Op: "iteration", Index: i, Reason: err.Error()})
					return
				}
				b.fleetIteration(ph, t, i, it)
			}
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupWorkingSet starts a daemon with the hit-serve cache budget and
// compiles the Zipf working set through it, two clients at a time.
func setupWorkingSet(b *bench) error {
	if err := b.start(newDaemonStack(hitServeCacheMB, b.opts.compilePar)); err != nil {
		return err
	}
	if err := b.warmUp(); err != nil {
		return err
	}
	n := 256
	if b.opts.seconds == 0 {
		n = max(16, int(256*b.opts.scale+0.5))
	}
	b.drawer = newDrawer(b.opts.seed, streamWorkingSet)
	b.set = make([]compileOp, n)
	for i := range b.set {
		op, err := b.drawer.nextOp()
		if err != nil {
			return err
		}
		b.set[i] = op
	}
	return b.sendAll("working-set", b.set)
}

// warmUp sends two compiles (with and without spare rows) for every
// (deck, corner, buffer size), so the process-wide leaf-cell library
// memo is warm before measuring: that cost belongs to setup_s. The
// 64-word geometry lies outside the measured space.
func (b *bench) warmUp() error {
	var ops []compileOp
	for _, deck := range spaceDecks {
		for _, corner := range spaceCorner {
			for _, buf := range spaceBuf {
				for _, spares := range []int{0, 4} {
					op, err := newCompileOp(geometry{Words: 64, BPW: 4, BPC: 4, Spares: spares, Buf: buf, Deck: deck, Corner: corner})
					if err != nil {
						return err
					}
					ops = append(ops, op)
				}
			}
		}
	}
	return b.sendAll("warm-up", ops)
}

// sendAll compiles ops cold with nproc clients and fails on the first
// wrong answer. Setup traffic is checked like measured traffic, and
// its reports feed the differential sample.
func (b *bench) sendAll(kind string, ops []compileOp) error {
	clients := runtime.NumCPU()
	errs := make([]error, clients)
	samples := make([][]coldSample, clients)
	parallel(clients, func(c int) {
		for i := c; i < len(ops); i += clients {
			status, body, _, err := b.st.do(http.MethodPost, b.st.url+"/v1/compile", ops[i].body)
			if err != nil {
				errs[c] = fmt.Errorf("%s #%d: %w", kind, i, err)
				return
			}
			job, f := b.oracle.checkCompile(kind, i, ops[i], status, body, false)
			if f != nil {
				errs[c] = f
				return
			}
			if sampled(b.opts.seed, i) && kind != "warm-up" {
				samples[c] = append(samples[c], coldSample{kind: kind, idx: i, op: ops[i], report: job.Report})
			}
		}
	})
	for c := range errs {
		if errs[c] != nil {
			return errs[c]
		}
		b.setupSamples = append(b.setupSamples, samples[c]...)
	}
	return nil
}

// compileLoop sends unique compiles back to back.
func (b *bench) compileLoop(ph *phase, t *tally, more func(int) bool) {
	for i := 0; more(i); i++ {
		op, err := b.drawer.nextOp()
		if err != nil {
			t.fail(&failure{Op: "compile", Index: i, Reason: err.Error()})
			return
		}
		t.ops++
		b.compileOp(ph, t, "compile", i, op)
	}
}

// compileOp sends one cold compile and checks it; a failure is
// recorded in t.
func (b *bench) compileOp(ph *phase, t *tally, kind string, i int, op compileOp) (*compileJob, bool) {
	end := ph.span("op." + kind)
	status, body, lat, err := b.st.do(http.MethodPost, b.st.url+"/v1/compile", op.body)
	end()
	if err != nil {
		return nil, t.fail(&failure{Op: kind, Index: i, Reason: err.Error()})
	}
	job, f := b.oracle.checkCompile(kind, i, op, status, body, false)
	if f != nil {
		return nil, t.fail(f)
	}
	t.observe(ph, kind, lat, op, job)
	if sampled(b.opts.seed, i) {
		t.samples = append(t.samples, coldSample{kind: kind, idx: i, op: op, report: job.Report})
	}
	if ph.traced && len(t.cold) < replayCompiles {
		t.cold = append(t.cold, op)
	}
	return job, true
}

// hitLoop sends repeat requests drawn from r.
func (b *bench) hitLoop(ph *phase, t *tally, r *zipfReader, more func(int) bool) {
	for i := 0; more(i); i++ {
		t.ops++
		b.hitOp(ph, t, "hit", i, r.next())
	}
}

// hitOp sends one request whose key is already compiled and checks it
// is served from a cache tier with the cold report's exact bytes.
func (b *bench) hitOp(ph *phase, t *tally, kind string, i int, op compileOp) bool {
	end := ph.span("op." + kind)
	status, body, lat, err := b.st.do(http.MethodPost, b.st.url+"/v1/compile", op.body)
	end()
	if err != nil {
		return t.fail(&failure{Op: kind, Index: i, Reason: err.Error()})
	}
	job, f := b.oracle.checkCompile(kind, i, op, status, body, true)
	if f != nil {
		return t.fail(f)
	}
	if job.CacheTier == "hit" {
		t.memHits++
	}
	t.observe(ph, kind, lat, op, job)
	return true
}

// fleetIteration runs one fleet-sweep round through the gateway. Its
// latency is the whole round; each step is also kept by kind.
func (b *bench) fleetIteration(ph *phase, t *tally, i int, it iteration) {
	start := time.Now()
	end := ph.span("op.iteration")
	ok := b.fleetSteps(ph, t, i, it)
	end()
	if ok {
		t.record("iteration", time.Since(start))
	}
}

func (b *bench) fleetSteps(ph *phase, t *tally, i int, it iteration) bool {
	// The iteration is the counted op: its first failing step fails it.
	t.ops++
	job, ok := b.compileOp(ph, t, "compile", i, it.compile)
	if !ok {
		return false
	}
	if ph.traced && job.JobID != "" {
		t.jobs = append(t.jobs, job.JobID)
	}
	if !b.hitOp(ph, t, "hit", i, it.compile) {
		return false
	}

	cold, f := b.runSweep(ph, t, "sweep_cold", i, it.sweep, 64)
	if f != nil {
		return t.fail(f)
	}
	before := b.completedOnShards()
	repeat, f := b.runSweep(ph, t, "sweep_repeat", i, it.sweep, 64)
	if f != nil {
		return t.fail(f)
	}
	if n := b.completedOnShards() - before; n != 0 {
		return t.fail(&failure{Op: "sweep_repeat", Index: i, Reason: fmt.Sprintf("repeat sweep ran %v compiles", n)})
	}
	if err := sameRows(cold.Data.Rows, repeat.Data.Rows); err != nil {
		return t.fail(&failure{Op: "sweep_repeat", Index: i, Reason: err.Error()})
	}
	mc, f := b.runSweep(ph, t, "sweep_mc", i, it.mc, len(mcSigmas))
	if f != nil {
		return t.fail(f)
	}
	for r, row := range mc.Data.Rows {
		block, _ := row["mc"].(map[string]any)
		if block == nil || block["samples"] != float64(mcSamples) || block["seed"] != float64(it.mcSeed) {
			return t.fail(&failure{Op: "sweep_mc", Index: i, Reason: fmt.Sprintf("row %d has no matching mc block", r)})
		}
	}
	return true
}

// runSweep creates a sweep through the gateway, follows its event
// stream to the terminal summary, and fetches the results.
func (b *bench) runSweep(ph *phase, t *tally, kind string, i int, spec []byte, rows int) (*sweepResults, *failure) {
	end := ph.span("op." + kind)
	defer end()
	start := time.Now()
	status, body, _, err := b.st.do(http.MethodPost, b.st.url+"/v1/sweeps", spec)
	if err != nil {
		return nil, &failure{Op: kind, Index: i, Reason: err.Error()}
	}
	id, f := sweepID(kind, i, status, body)
	if f != nil {
		return nil, f
	}
	// The stream closes after the terminal summary.
	if status, _, _, err = b.st.do(http.MethodGet, b.st.url+"/v1/sweeps/"+id+"/events", nil); err != nil || status != 200 {
		return nil, &failure{Op: kind, Index: i, Status: status, Reason: fmt.Sprintf("event stream: %v", err)}
	}
	status, body, _, err = b.st.do(http.MethodGet, b.st.url+"/v1/sweeps/"+id+"/results", nil)
	if err != nil {
		return nil, &failure{Op: kind, Index: i, Reason: err.Error()}
	}
	res, f := decodeResults(kind, i, status, body, rows)
	if f != nil {
		return nil, f
	}
	t.record(kind, time.Since(start))
	if ph.traced && len(t.specs) < replaySweeps {
		t.specs = append(t.specs, spec)
	}
	return res, nil
}

// completedOnShards sums jobs_completed_total over the shards.
func (b *bench) completedOnShards() float64 {
	var n float64
	for _, nd := range b.st.nodes {
		n += num(nd.reg.Snapshot()["jobs_completed_total"])
	}
	return n
}

// parallel runs fn(0..n-1) on n goroutines and waits for all of them.
func parallel(n int, fn func(int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// spanCap bounds the op spans one traced phase keeps for trace.json.
const spanCap = 5000

// span opens a benchmark-side span around one client op when the
// phase is traced and under its span budget.
func (ph *phase) span(name string) func(...obs.Attr) {
	if ph.trace == nil || ph.spans.Add(1) > spanCap {
		return func(...obs.Attr) {}
	}
	_, end := obs.Start(obs.WithTrace(context.Background(), ph.trace), name)
	return end
}
