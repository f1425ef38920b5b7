package cache

import (
	"fmt"
	"sync"
	"testing"
)

// entry builds a report-only entry, so its size is the same whole and
// resident and the budget arithmetic below is exact.
func entry(key string, bodyBytes int) *Entry {
	return &Entry{Key: key, Report: make([]byte, bodyBytes)}
}

// TestPutKeepsReportAndSizes: the tier keeps a whole entry's report,
// Degraded flag and artifact sizes, drops the bodies, charges only
// what it keeps, and leaves the caller's entry whole.
func TestPutKeepsReportAndSizes(t *testing.T) {
	c := New(1 << 20)
	whole := &Entry{
		Key:       "k",
		Report:    []byte(`{"r":1}`),
		Artifacts: map[string][]byte{"layout.gds": make([]byte, 50_000), "datasheet.txt": []byte("ds")},
		Degraded:  true,
	}
	c.Put(whole)
	got, ok := c.Get("k")
	if !ok {
		t.Fatal("expected hit")
	}
	if got.Artifacts != nil {
		t.Fatalf("memory tier kept artifact bodies: %v", got.ArtifactNames())
	}
	if string(got.Report) != string(whole.Report) || !got.Degraded {
		t.Fatalf("resident entry %+v lost the report or the Degraded flag", got)
	}
	want := map[string]int{"layout.gds": 50_000, "datasheet.txt": 2}
	if sizes := got.ArtifactSizes(); len(sizes) != len(want) || sizes["layout.gds"] != want["layout.gds"] || sizes["datasheet.txt"] != want["datasheet.txt"] {
		t.Fatalf("artifact sizes %v, want %v", sizes, want)
	}
	if b := c.Stats().Bytes; b != got.Size() || b >= 1000 {
		t.Fatalf("resident bytes %d, want the resident entry's %d (< 1000)", b, got.Size())
	}
	if len(whole.Artifacts["layout.gds"]) != 50_000 {
		t.Fatal("Put stripped the caller's entry")
	}
}

func TestHitMissCounters(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Get("k"); ok {
		t.Fatal("unexpected hit")
	}
	c.Put(entry("k", 100))
	if _, ok := c.Get("k"); !ok {
		t.Fatal("expected hit")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Budget fits ~3 entries of this size.
	e := entry("probe", 1000)
	unit := e.Size()
	c := New(3 * unit)
	c.Put(entry("a", 1000))
	c.Put(entry("b", 1000))
	c.Put(entry("c", 1000))
	// Touch "a" so "b" is now LRU.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put(entry("d", 1000))
	if c.Contains("b") {
		t.Fatal("b should have been evicted as LRU")
	}
	for _, k := range []string{"a", "c", "d"} {
		if !c.Contains(k) {
			t.Fatalf("%s should be resident", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", s.Evictions)
	}
}

func TestByteBudgetRespected(t *testing.T) {
	c := New(10_000)
	for i := 0; i < 100; i++ {
		c.Put(entry(fmt.Sprintf("k%03d", i), 900))
	}
	if b := c.Stats().Bytes; b > 10_000 {
		t.Fatalf("resident bytes %d exceed budget", b)
	}
	if c.Len() == 0 {
		t.Fatal("cache should retain recent entries")
	}
}

func TestOversizeEntryRejected(t *testing.T) {
	c := New(500)
	c.Put(entry("big", 10_000))
	if c.Len() != 0 {
		t.Fatal("oversize entry must not be admitted")
	}
	if s := c.Stats(); s.Rejected != 1 {
		t.Fatalf("rejected %d, want 1", s.Rejected)
	}
}

func TestReplaceSameKeyAccounting(t *testing.T) {
	c := New(1 << 20)
	c.Put(entry("k", 1000))
	before := c.Stats().Bytes
	c.Put(entry("k", 2000))
	if c.Len() != 1 {
		t.Fatalf("len %d, want 1", c.Len())
	}
	if c.Stats().Bytes <= before {
		t.Fatal("replacement should grow resident size")
	}
	c.Put(entry("k", 100))
	if c.Stats().Bytes >= before {
		t.Fatal("shrinking replacement should shrink resident size")
	}
}

func TestZeroBudgetStoresNothing(t *testing.T) {
	c := New(0)
	c.Put(entry("k", 1))
	if c.Len() != 0 {
		t.Fatal("zero-budget cache must stay empty")
	}
}

func TestKeysMRUOrder(t *testing.T) {
	c := New(1 << 20)
	c.Put(entry("a", 10))
	c.Put(entry("b", 10))
	c.Get("a")
	keys := c.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("keys %v", keys)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(50_000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*13+i)%40)
				if i%3 == 0 {
					c.Put(entry(k, 500+i%700))
				} else {
					c.Get(k)
				}
				if i%50 == 0 {
					c.Stats()
					c.Keys()
				}
			}
		}(g)
	}
	wg.Wait()
	if b := c.Stats().Bytes; b > 50_000 {
		t.Fatalf("budget violated under concurrency: %d", b)
	}
}

// Contains reports whether key is resident without promoting it or
// touching the hit/miss counters.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Keys returns resident keys from most- to least-recently used.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Entry).Key)
	}
	return out
}
