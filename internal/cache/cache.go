// Package cache is the serving layer's memory tier: an LRU of compile
// results bounded by a byte-size budget, keyed by the canonical
// SHA-256 content address computed in internal/canon.
//
// The tier is report-resident. It keeps what a compile hit answers
// with — the canonical report, the Degraded flag and each artifact's
// byte size — and never the artifact bodies, which only a job's own
// result carries. A whole entry is about a hundred times its report
// (layout.gds dominates), so a budget holds that many more keys, and
// the resident size of every entry is still exactly the sum of its
// parts, so eviction accounting stays precise.
//
// Because keys address the fully-validated, canonicalized inputs, a
// hit is always semantically correct to serve: two requests with the
// same key are the same compile. The cache is safe for concurrent use.
package cache

import (
	"container/list"
	"maps"
	"sort"
	"sync"

	"repro/internal/chaos"
)

// Entry is one compile result: whole when it carries the artifact
// bodies (a finished job's value), report-resident when it carries
// only their sizes (what the memory tier holds and a disk hit
// returns).
type Entry struct {
	// Key is the canonical content address (SHA-256 hex).
	Key string
	// Report is the canonical datasheet.json document.
	Report []byte
	// Artifacts maps artifact name (datasheet.txt, trpla_and.plane,
	// layout.svg, ...) to rendered bytes; nil on a report-resident
	// entry.
	Artifacts map[string][]byte
	// Degraded records whether the compile descended the degradation
	// ladder (mirrors Report's degradations list, denormalised so the
	// serving layer can annotate responses without re-parsing JSON).
	Degraded bool
	// Sizes maps artifact name to byte size for the artifacts whose
	// bodies the entry does not carry.
	Sizes map[string]int
}

// sizeWord is what Size charges for each entry of Sizes besides its
// name: the int it maps to.
const sizeWord = 8

// Size returns the resident byte size of the entry: key and report,
// plus each artifact's name and its body or recorded size.
func (e *Entry) Size() int64 {
	n := int64(len(e.Key)) + int64(len(e.Report))
	for name, body := range e.Artifacts {
		n += int64(len(name)) + int64(len(body))
	}
	for name := range e.Sizes {
		n += int64(len(name)) + sizeWord
	}
	return n
}

// ArtifactSizes maps every artifact name to its byte size: the
// recorded Sizes, and the length of each body the entry carries.
func (e *Entry) ArtifactSizes() map[string]int {
	sizes := make(map[string]int, len(e.Sizes)+len(e.Artifacts))
	maps.Copy(sizes, e.Sizes)
	for name, body := range e.Artifacts {
		sizes[name] = len(body)
	}
	return sizes
}

// ArtifactNames lists the entry's artifact names, sorted.
func (e *Entry) ArtifactNames() []string {
	names := make([]string, 0, len(e.Artifacts))
	for n := range e.Artifacts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	// Rejected counts entries refused because a single entry exceeded
	// the whole budget.
	Rejected    uint64 `json:"rejected"`
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	BudgetBytes int64  `json:"budget_bytes"`
}

// Cache is the LRU. The zero value is unusable; construct with New.
type Cache struct {
	mu     sync.Mutex
	budget int64
	size   int64
	ll     *list.List // front = most recently used; values are report-resident *Entry
	items  map[string]*list.Element
	chaos  *chaos.Injector

	hits, misses, puts, evictions, rejected uint64
}

// SetChaos installs a fault injector (cache.put drops inserts,
// simulating memory pressure). Call before serving; nil disables.
func (c *Cache) SetChaos(in *chaos.Injector) {
	c.mu.Lock()
	c.chaos = in
	c.mu.Unlock()
}

// New builds a cache with the given byte budget. A non-positive
// budget yields a cache that stores nothing (every Put is rejected) —
// useful for disabling caching without branching at call sites.
func New(budgetBytes int64) *Cache {
	return &Cache{
		budget: budgetBytes,
		ll:     list.New(),
		items:  map[string]*list.Element{},
	}
}

// Get returns the entry for key and promotes it to most-recently-used.
func (c *Cache) Get(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*Entry), true
}

// Contains reports whether key is resident without promoting it or
// touching the hit/miss counters.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Put inserts (or replaces) the report-resident form of the entry,
// then evicts least-recently-used entries until the byte budget is
// respected. An entry larger than the whole budget is rejected rather
// than flushing everything else.
func (c *Cache) Put(e *Entry) {
	e = &Entry{Key: e.Key, Report: e.Report, Degraded: e.Degraded, Sizes: e.ArtifactSizes()}
	size := e.Size()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.chaos.Fail(chaos.PointCachePut) != nil {
		// Injected memory pressure: the insert is dropped; the entry
		// stays servable from the disk tier.
		c.rejected++
		return
	}
	if size > c.budget {
		c.rejected++
		return
	}
	if el, ok := c.items[e.Key]; ok {
		old := el.Value.(*Entry)
		c.size -= old.Size()
		el.Value = e
		c.ll.MoveToFront(el)
	} else {
		c.items[e.Key] = c.ll.PushFront(e)
	}
	c.size += size
	c.puts++
	for c.size > c.budget {
		c.evictOldest()
	}
}

// evictOldest drops the LRU entry. Caller holds c.mu.
func (c *Cache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*Entry)
	c.ll.Remove(el)
	delete(c.items, e.Key)
	c.size -= e.Size()
	c.evictions++
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Puts: c.puts,
		Evictions: c.evictions, Rejected: c.rejected,
		Entries: c.ll.Len(), Bytes: c.size, BudgetBytes: c.budget,
	}
}

// Len returns the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the resident byte size.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Keys returns resident keys from most- to least-recently used —
// observability for the /metrics handler and tests.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Entry).Key)
	}
	return out
}
