package store_test

import (
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/compiler"
	"repro/internal/server"
	"repro/internal/store"
)

// benchReq is the object both benchmarks move: the daemon's entry for
// a 4096-word, 32-bit, 8-column-mux array with four spares.
const benchReq = `{"words":4096,"bpw":32,"bpc":8,"spares":4}`

var (
	benchOnce sync.Once
	benchEnt  *cache.Entry
	benchErr  error
	benchSink *cache.Entry
)

// benchEntry compiles benchReq once and renders it exactly as the
// daemon does before a Put.
func benchEntry(b *testing.B) *cache.Entry {
	b.Helper()
	benchOnce.Do(func() {
		req, err := canon.ParseRequest([]byte(benchReq))
		if err != nil {
			benchErr = err
			return
		}
		p, err := req.Params()
		if err != nil {
			benchErr = err
			return
		}
		key, err := canon.KeyOfParams(p)
		if err != nil {
			benchErr = err
			return
		}
		d, err := compiler.Compile(p)
		if err != nil {
			benchErr = err
			return
		}
		benchEnt, benchErr = server.RenderEntry(key, d)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnt
}

// BenchmarkStoreGet times a disk hit on benchReq's object: everything
// Store.Get reads and verifies before it returns the entry.
func BenchmarkStoreGet(b *testing.B) {
	e := benchEntry(b)
	s, err := store.Open(store.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Put(e); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, ok := s.Get(e.Key)
		if !ok {
			b.Fatal("disk hit missed")
		}
		benchSink = got
	}
}

// BenchmarkStorePut times persisting benchReq's whole entry: encoding,
// hashing, the temp-file write and the rename into place.
func BenchmarkStorePut(b *testing.B) {
	e := benchEntry(b)
	s, err := store.Open(store.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(e); err != nil {
			b.Fatal(err)
		}
	}
}
