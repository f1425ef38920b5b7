// Package chaos is the service's deterministic fault injector: a
// seeded, scenario-scripted source of disk errors, artifact bit-flips,
// stage latency spikes, stage panics and queue stalls, threaded
// through the store, cache, jobs and compiler layers so the drills in
// `make chaos-smoke` can prove the recovery machinery (quarantine,
// sweep journal resume, admission control, retrying clients) end to
// end against a real daemon.
//
// The paper's subject is a RAM that repairs itself after field
// failures; OpenYield and the functional-BIST literature evaluate
// that property by *injecting* variation and faults rather than
// waiting for them. This package applies the same discipline to the
// service itself: every failure mode the recovery paths claim to
// handle has a scripted injection that exercises it.
//
// Design constraints:
//
//   - Disabled is free. Every entry point is a nil-receiver no-op, so
//     production paths (no -chaos-spec) pay exactly one nil check and
//     zero allocations.
//   - Deterministic. A spec carries a seed; probabilistic rules draw
//     from a seeded PRNG and counted rules (skip/max) fire on exact
//     hit ordinals, so a drill replays identically for a fixed
//     request sequence.
//   - Scenario-scripted. A spec is a JSON list of rules, each naming
//     an injection point ("store.read", "queue.stall",
//     "compile.stage.floorplan", ...), a mode (error, delay, corrupt,
//     panic) and firing bounds (skip the first N hits, fire at most M
//     times, fire with probability p).
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/cerr"
)

// Injection points threaded through the service. A rule's Point must
// match one of these exactly, or use a trailing "*" to match a family
// (e.g. "compile.stage.*").
const (
	// PointStoreWrite fires in store.Put before the object is
	// committed: an "error" rule simulates a full or failing disk.
	PointStoreWrite = "store.write"
	// PointStoreRead fires in store.Get: an "error" rule simulates an
	// unreadable file (reported as a miss), a "corrupt" rule flips a
	// bit in the read image so verification fails and the quarantine
	// path runs.
	PointStoreRead = "store.read"
	// PointCachePut fires in cache.Put: an "error" rule drops the
	// insert, simulating memory pressure.
	PointCachePut = "cache.put"
	// PointQueueStall fires when a worker picks a job up: a "delay"
	// rule stalls the pickup, simulating a wedged worker.
	PointQueueStall = "queue.stall"
	// PointPeerFetch fires when a store miss consults ring peers: an
	// "error" rule fails the fetch (the shard recompiles), a "corrupt"
	// rule flips a bit in the fetched object image so verification
	// quarantines it exactly like disk rot.
	PointPeerFetch = "store.peerfetch"
	// PointProxyRoute fires in the gateway before each routed peer
	// exchange: an "error" rule fails the attempt (exercising
	// ring-successor failover), a "delay" rule injects routing latency.
	PointProxyRoute = "proxy.route"
	// PointTraceFetch fires in the gateway before each remote span-set
	// fetch for a merged /debug/trace view: an "error" rule degrades
	// the merge to gateway-local spans, a "delay" rule slows it.
	PointTraceFetch = "trace.fetch"
	// PointFleetScrape fires per peer in the gateway's fleet metrics
	// scrape: an "error" rule makes that peer count as stale (skipped,
	// error counted), a "delay" rule exercises the per-peer timeout.
	PointFleetScrape = "fleet.scrape"
	// PointSimBatch fires when a bit-parallel fault-simulation batch
	// (sram.BatchArray) is constructed: "error" fails the batch with a
	// typed error (the coverage experiments must surface it, never
	// panic or return a partial table), "delay" stalls kernel startup.
	PointSimBatch = "sim.batch"
	// PointMCSample fires once per Monte-Carlo yield sample chunk in
	// mcyield.Estimate: an "error" rule aborts the estimate (testing
	// the sweep's failed-point path), a "delay" rule slows sampling so
	// SSE progress and admission control can be observed mid-flight.
	PointMCSample = "mc.sample"
	// PointStagePrefix + stage name fires at each compile stage
	// checkpoint: "delay" injects a latency spike, "panic" exercises
	// the recover guards, "error" fails the stage with a typed error.
	PointStagePrefix = "compile.stage."
)

// Modes a rule can run in.
const (
	ModeError   = "error"
	ModeDelay   = "delay"
	ModeCorrupt = "corrupt"
	ModePanic   = "panic"
)

// Rule scripts one injection: at Point, in Mode, firing on hits
// skip < ordinal <= skip+max (max 0 = unlimited) with probability
// Prob (0 means always).
type Rule struct {
	Point string `json:"point"`
	Mode  string `json:"mode"`
	// Prob is the firing probability per eligible hit; 0 or 1 fires
	// on every eligible hit.
	Prob float64 `json:"prob,omitempty"`
	// Skip suppresses the first N matching hits.
	Skip int `json:"skip,omitempty"`
	// Max caps how many times the rule fires; 0 means unlimited.
	Max int `json:"max,omitempty"`
	// DelayMs is the injected latency for "delay" rules.
	DelayMs int `json:"delay_ms,omitempty"`
}

// Spec is the -chaos-spec wire form: a seed plus the rule list.
type Spec struct {
	Seed  int64  `json:"seed,omitempty"`
	Rules []Rule `json:"rules"`
}

// rule is the runtime form of one scripted injection.
type rule struct {
	Rule
	hits  int // matching invocations seen
	fired int // injections actually performed
}

// matches reports whether r applies to the named point ("*" suffix is
// a family wildcard).
func (r *rule) matches(point string) bool {
	if strings.HasSuffix(r.Point, "*") {
		return strings.HasPrefix(point, strings.TrimSuffix(r.Point, "*"))
	}
	return r.Point == point
}

// Injector evaluates a scripted scenario. A nil *Injector is the
// disabled state: every method returns the zero outcome immediately.
// Construct with Parse or LoadSpec; safe for concurrent use.
type Injector struct {
	mu    sync.Mutex
	rules []*rule
	rng   *rand.Rand
}

// Parse compiles a JSON spec into an injector.
func Parse(data []byte) (*Injector, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, cerr.Wrap(cerr.CodeInvalidParams, err, "chaos: bad spec JSON")
	}
	if len(s.Rules) == 0 {
		return nil, cerr.New(cerr.CodeInvalidParams, "chaos: spec has no rules")
	}
	in := &Injector{rng: rand.New(rand.NewSource(s.Seed))}
	for i, r := range s.Rules {
		if r.Point == "" {
			return nil, cerr.New(cerr.CodeInvalidParams, "chaos: rule %d has no point", i)
		}
		switch r.Mode {
		case ModeError, ModeDelay, ModeCorrupt, ModePanic:
		default:
			return nil, cerr.New(cerr.CodeInvalidParams,
				"chaos: rule %d has unknown mode %q (error, delay, corrupt, panic)", i, r.Mode)
		}
		if r.Prob < 0 || r.Prob > 1 {
			return nil, cerr.New(cerr.CodeInvalidParams, "chaos: rule %d probability %v out of [0,1]", i, r.Prob)
		}
		if r.Skip < 0 || r.Max < 0 || r.DelayMs < 0 {
			return nil, cerr.New(cerr.CodeInvalidParams, "chaos: rule %d has negative bounds", i)
		}
		if r.Mode == ModeDelay && r.DelayMs == 0 {
			return nil, cerr.New(cerr.CodeInvalidParams, "chaos: delay rule %d needs delay_ms", i)
		}
		rr := r
		in.rules = append(in.rules, &rule{Rule: rr})
	}
	return in, nil
}

// LoadSpec builds the injector a -chaos-spec flag names: inline JSON
// (the value starts with "{") or the path of a spec file. An empty
// spec is the disabled state, a nil injector.
func LoadSpec(spec string) (*Injector, error) {
	if spec == "" {
		return nil, nil
	}
	if strings.HasPrefix(strings.TrimSpace(spec), "{") {
		return Parse([]byte(spec))
	}
	data, err := os.ReadFile(spec)
	if err != nil {
		return nil, cerr.Wrap(cerr.CodeInvalidParams, err, "chaos: reading spec %s", spec)
	}
	return Parse(data)
}

// fire decides whether any rule in the given mode fires at point,
// returning the matched rule. Hit and fire counters advance under the
// injector lock, so skip/max ordinals are exact even under concurrent
// callers.
func (in *Injector) fire(point, mode string) *rule {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.Mode != mode || !r.matches(point) {
			continue
		}
		r.hits++
		if r.hits <= r.Skip {
			continue
		}
		if r.Max > 0 && r.fired >= r.Max {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && in.rng.Float64() >= r.Prob {
			continue
		}
		r.fired++
		return r
	}
	return nil
}

// Fail returns an injected typed error when an "error" rule fires at
// point, nil otherwise (and always nil on a nil injector).
func (in *Injector) Fail(point string) error {
	if in == nil {
		return nil
	}
	if r := in.fire(point, ModeError); r != nil {
		return cerr.New(cerr.CodeInternal, "chaos: injected %s error (firing %d)", point, r.fired)
	}
	return nil
}

// Delay sleeps for the scripted latency when a "delay" rule fires at
// point.
func (in *Injector) Delay(point string) {
	if in == nil {
		return
	}
	if r := in.fire(point, ModeDelay); r != nil {
		time.Sleep(time.Duration(r.DelayMs) * time.Millisecond)
	}
}

// Corrupt flips one bit in data when a "corrupt" rule fires at point,
// reporting whether it did. The flipped offset is the buffer midpoint,
// so the corruption is deterministic for a given payload.
func (in *Injector) Corrupt(point string, data []byte) bool {
	if in == nil || len(data) == 0 {
		return false
	}
	if r := in.fire(point, ModeCorrupt); r != nil {
		data[len(data)/2] ^= 0x01
		return true
	}
	return false
}

// Point runs the full stage-checkpoint protocol at the named point:
// delay rules sleep, panic rules panic (exercising the recover
// guards), error rules return a typed error. The compiler calls this
// at every stage checkpoint with "compile.stage.<name>".
func (in *Injector) Point(point string) error {
	if in == nil {
		return nil
	}
	in.Delay(point)
	if r := in.fire(point, ModePanic); r != nil {
		panic(fmt.Sprintf("chaos: injected panic at %s (firing %d)", point, r.fired))
	}
	return in.Fail(point)
}

// Fired returns the total injections performed, for the
// chaos_injections_total metric.
func (in *Injector) Fired() uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var n uint64
	for _, r := range in.rules {
		n += uint64(r.fired)
	}
	return n
}
