// Package memo is the process's one memo primitive: a bounded table
// of pure-function results under comparable content keys. Four tables
// use it — the frozen leaf-cell libraries (leafcell.Shared), the
// decode and TLB match-line transients of the compiler's timing
// analysis, and the sweep manager's Monte-Carlo yield estimates.
//
// The contract every user relies on:
//
//   - Single flight per key. Concurrent callers for one key run fn
//     once; the rest wait for it. Distinct keys never wait on each
//     other: fn runs outside the table lock.
//   - Successes only. A failed fn stores nothing, and its waiters do
//     not receive the leader's error: they retry, so one of them runs
//     fn for itself under its own context. A panic in fn releases the
//     key the same way and re-panics into the leader's caller (its
//     cerr.Recover guard), so waiters never hang.
//   - One capacity policy. Inserting a new key into a full table
//     clears it; recomputing is correct, merely slower.
//   - Counted. Every Do is exactly one hit (value served from the
//     table, or from a leader it waited for) or one miss (fn ran).
package memo

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Table memoizes successful results of a pure function per key.
// Tables are built once per process with New and live as long as it.
type Table[K comparable, V any] struct {
	name string
	cap  int

	mu      sync.Mutex
	entries map[K]*entry[V]

	hits, misses atomic.Uint64
}

// entry is one key's flight: done closes when the leader returns (or
// panics); ok and val are written before that.
type entry[V any] struct {
	done chan struct{}
	ok   bool
	val  V
}

// Stats are a table's lifetime counts (Reset does not clear them).
type Stats struct {
	Hits, Misses uint64
}

// Handle is the type-erased view of a table: what telemetry reads
// and what tests reset.
type Handle interface {
	Name() string
	Stats() Stats
	Reset()
}

var (
	tablesMu sync.Mutex
	tables   []Handle
)

// New builds a table named name (the label its counters carry) that
// holds at most capacity entries, and registers it for Tables.
func New[K comparable, V any](name string, capacity int) *Table[K, V] {
	t := &Table[K, V]{name: name, cap: capacity, entries: map[K]*entry[V]{}}
	tablesMu.Lock()
	tables = append(tables, t)
	tablesMu.Unlock()
	return t
}

// Tables returns every table built in this process, sorted by name.
func Tables() []Handle {
	tablesMu.Lock()
	out := append([]Handle(nil), tables...)
	tablesMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Name returns the table's counter label.
func (t *Table[K, V]) Name() string { return t.name }

// Stats returns the lifetime hit and miss counts.
func (t *Table[K, V]) Stats() Stats {
	return Stats{Hits: t.hits.Load(), Misses: t.misses.Load()}
}

// Len returns the number of keys held or in flight.
func (t *Table[K, V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Reset forgets every key, so the next Do of each runs fn. Flights in
// progress finish and serve their waiters but are not kept.
func (t *Table[K, V]) Reset() {
	t.mu.Lock()
	clear(t.entries)
	t.mu.Unlock()
}

// Do returns the memoized value for key, running fn on a miss. hit
// reports whether the value came from the table rather than from this
// caller's own fn.
func (t *Table[K, V]) Do(key K, fn func() (V, error)) (v V, hit bool, err error) {
	for {
		t.mu.Lock()
		e, ok := t.entries[key]
		if !ok {
			if len(t.entries) >= t.cap {
				clear(t.entries)
			}
			e = &entry[V]{done: make(chan struct{})}
			t.entries[key] = e
			t.mu.Unlock()
			t.misses.Add(1)
			v, err = t.lead(key, e, fn)
			return v, false, err
		}
		t.mu.Unlock()
		<-e.done
		if e.ok {
			t.hits.Add(1)
			return e.val, true, nil
		}
		// The leader failed or panicked and released the key: go
		// round again, so this caller computes for itself.
	}
}

// lead runs fn as key's leader. On failure or panic it releases the
// key (unless a clear already dropped it) before waking the waiters.
func (t *Table[K, V]) lead(key K, e *entry[V], fn func() (V, error)) (V, error) {
	defer func() {
		if !e.ok {
			t.mu.Lock()
			if t.entries[key] == e {
				delete(t.entries, key)
			}
			t.mu.Unlock()
		}
		close(e.done)
	}()
	v, err := fn()
	if err == nil {
		e.val, e.ok = v, true
	}
	return v, err
}
