package cluster

import (
	"net/http"
	"sync"
	"time"
)

// Table is the live view of a ring: which members are currently up,
// maintained by health probes and by MarkDown reports from routing
// failures. Every up/down transition bumps a monotonic version, so
// observers (the cluster_ring_version gauge, tests) can detect
// convergence without comparing member lists. Safe for concurrent use.
type Table struct {
	ring *Ring

	mu      sync.Mutex
	down    map[string]bool
	version uint64
}

// NewTable wraps a ring with an all-up member table at version 1.
func NewTable(ring *Ring) *Table {
	return &Table{ring: ring, down: map[string]bool{}, version: 1}
}

// Ring returns the underlying immutable ring.
func (t *Table) Ring() *Ring { return t.ring }

// Version returns the current ring-state version; it bumps on every
// up/down transition.
func (t *Table) Version() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}

// Up reports whether member is currently considered up.
func (t *Table) Up(member string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.down[member]
}

// PeersUp returns how many members are currently up.
func (t *Table) PeersUp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring.members) - len(t.down)
}

// PeersTotal returns the ring's member count.
func (t *Table) PeersTotal() int { return len(t.ring.members) }

// setState records an up/down observation, bumping the version only on
// a transition. Reports whether the state changed.
func (t *Table) setState(member string, up bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.down[member] != up {
		return false // already in the observed state
	}
	if up {
		delete(t.down, member)
	} else {
		t.down[member] = true
	}
	t.version++
	return true
}

// MarkDown records a routing-observed transport failure without
// waiting for the next probe tick, so failover converges at request
// speed. The prober brings the member back.
func (t *Table) MarkDown(member string) bool { return t.setState(member, false) }

// MarkUp records a member as healthy.
func (t *Table) MarkUp(member string) bool { return t.setState(member, true) }

// Route returns the members to try for key, owner first, down members
// filtered out. An empty slice means the whole fleet is down — callers
// should then fall back to trying everyone (the table may be stale).
func (t *Table) Route(key string) []string {
	all := t.ring.Successors(key, 0)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(all))
	for _, m := range all {
		if !t.down[m] {
			out = append(out, m)
		}
	}
	return out
}

// probeClient health-checks members: a member that does not answer
// within its timeout counts as down.
var probeClient = &http.Client{Timeout: 2 * time.Second}

// ProbeOnce health-checks every member synchronously (GET /healthz;
// only a 200 counts as up — a draining daemon answers 503 and must
// stop receiving new work). Returns how many members changed state.
func (t *Table) ProbeOnce() int {
	changed := 0
	for _, m := range t.ring.members {
		up := false
		if resp, err := probeClient.Get(m + "/healthz"); err == nil {
			up = resp.StatusCode == http.StatusOK
			resp.Body.Close()
		}
		if t.setState(m, up) {
			changed++
		}
	}
	return changed
}

// StartProbing launches the background probe loop at the given
// interval (min-clamped to 10 ms) and returns a stop function. The
// first probe round runs synchronously before returning, so a freshly
// started gateway routes with real health data from its first request.
func (t *Table) StartProbing(interval time.Duration) (stop func()) {
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t.ProbeOnce()
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				t.ProbeOnce()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
