package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// peerPair builds two stores sharing nothing on disk, with dst's peer
// resolver wired to src.ReadRaw — the minimal two-shard cluster.
func peerPair(t *testing.T) (src, dst *Store) {
	t.Helper()
	src = open(t, t.TempDir(), 0)
	dst = open(t, t.TempDir(), 0)
	dst.SetPeerFetch(func(key string) ([]byte, bool) { return src.ReadRaw(key) })
	return src, dst
}

func TestPeerFetchPromotesOnLocalMiss(t *testing.T) {
	src, dst := peerPair(t)
	e := testEntry("shared", 200)
	if err := src.Put(e); err != nil {
		t.Fatal(err)
	}

	got, ok := dst.Get(e.Key)
	if !ok {
		t.Fatal("peer-backed get missed")
	}
	if string(got.Report) != string(e.Report) || got.Artifacts != nil ||
		got.Sizes["datasheet.txt"] != len(e.Artifacts["datasheet.txt"]) {
		t.Fatal("report-resident entry drifted through the peer fetch")
	}
	// The promoted image is the peer's, byte for byte.
	want, _ := src.ReadRaw(e.Key)
	if got, _ := dst.ReadRaw(e.Key); !bytes.Equal(got, want) {
		t.Fatal("promoted image differs from the peer's")
	}
	st := dst.Stats()
	if st.PeerHits != 1 || st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats after peer hit: %+v", st)
	}
	// Promotion: the object is now local, so the next read never
	// touches the peer.
	dst.SetPeerFetch(func(string) ([]byte, bool) {
		t.Fatal("promoted object re-fetched from peer")
		return nil, false
	})
	if _, ok := dst.Get(e.Key); !ok {
		t.Fatal("promoted object not served locally")
	}
	if !dst.Contains(e.Key) {
		t.Fatal("promotion did not index the object")
	}
}

func TestPeerFetchMissAndNoResolver(t *testing.T) {
	src, dst := peerPair(t)
	if _, ok := dst.Get(testKey("absent")); ok {
		t.Fatal("hit for a key no peer has")
	}
	st := dst.Stats()
	if st.PeerMisses != 1 || st.Misses != 1 {
		t.Fatalf("stats after peer miss: %+v", st)
	}
	// Without a resolver the miss path is unchanged.
	dst.SetPeerFetch(nil)
	if _, ok := dst.Get(testKey("absent")); ok {
		t.Fatal("hit with no resolver")
	}
	if got := dst.Stats().PeerMisses; got != 1 {
		t.Fatalf("nil resolver consulted: peer misses %d", got)
	}
	_ = src
}

// TestPeerFetchCorruptQuarantines: a mangled peer image must fail
// verification, land in quarantine/ as evidence, and report a miss —
// the same contract as local disk rot.
func TestPeerFetchCorruptQuarantines(t *testing.T) {
	src, dst := peerPair(t)
	e := testEntry("rotten", 200)
	if err := src.Put(e); err != nil {
		t.Fatal(err)
	}
	dst.SetPeerFetch(func(key string) ([]byte, bool) {
		raw, ok := src.ReadRaw(key)
		if ok {
			raw[len(raw)/2] ^= 0x01
		}
		return raw, ok
	})
	if _, ok := dst.Get(e.Key); ok {
		t.Fatal("corrupt peer image served")
	}
	st := dst.Stats()
	if st.PeerCorrupt != 1 || st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats after corrupt fetch: %+v", st)
	}
	if dst.Contains(e.Key) {
		t.Fatal("corrupt image promoted")
	}
	if dst.QuarantinedCount() != 1 {
		t.Fatal("corrupt image not quarantined")
	}
	qents, _ := os.ReadDir(filepath.Join(dst.dir, quarantineDir))
	if len(qents) != 1 || !strings.HasPrefix(qents[0].Name(), e.Key+".") {
		t.Fatalf("quarantine contents %v", qents)
	}
}

// TestPeerFetchRejectsArtifactFlip: an image whose only damage is a
// byte inside an artifact section — which the owner's own hit never
// reads (TestArtifactFlipServesVerifiedReport) — fails the fetcher's
// whole-image verification: rejected, counted peer_corrupt,
// quarantined on the fetcher and never promoted.
func TestPeerFetchRejectsArtifactFlip(t *testing.T) {
	src, dst := peerPair(t)
	e := testEntry("x", 64)
	if err := src.Put(e); err != nil {
		t.Fatal(err)
	}
	path := src.objectPath(e.Key)
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, flip(raw, len(raw)-3), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := dst.Get(e.Key); ok {
		t.Fatal("peer image with a flipped artifact byte served")
	}
	st := dst.Stats()
	if st.PeerCorrupt != 1 || st.PeerHits != 0 || st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats after artifact-flipped fetch: %+v", st)
	}
	if dst.Contains(e.Key) {
		t.Fatal("corrupt image promoted")
	}
	if dst.QuarantinedCount() != 1 {
		t.Fatal("corrupt image not quarantined on the fetcher")
	}
}

// TestPeerFetchChaosInjection: the store.peerfetch point fails a fetch
// (error mode) or corrupts the image (corrupt mode) on the fetching
// side, without the peer serving anything wrong.
func TestPeerFetchChaosInjection(t *testing.T) {
	src := open(t, t.TempDir(), 0)
	e := testEntry("chaotic", 200)
	if err := src.Put(e); err != nil {
		t.Fatal(err)
	}

	inj, err := chaos.Parse([]byte(`{"rules":[
		{"point":"store.peerfetch","mode":"error","max":1},
		{"point":"store.peerfetch","mode":"corrupt","max":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := Open(Config{Dir: t.TempDir(), Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	dst.SetPeerFetch(func(key string) ([]byte, bool) { return src.ReadRaw(key) })

	// First get: injected fetch error — counted as a peer miss.
	if _, ok := dst.Get(e.Key); ok {
		t.Fatal("injected fetch error still hit")
	}
	if st := dst.Stats(); st.PeerMisses != 1 {
		t.Fatalf("stats after injected error: %+v", st)
	}
	// Second get: injected bit-flip — verification quarantines it.
	if _, ok := dst.Get(e.Key); ok {
		t.Fatal("injected corruption served")
	}
	if st := dst.Stats(); st.PeerCorrupt != 1 || dst.QuarantinedCount() != 1 {
		t.Fatalf("stats after injected corruption: %+v", st)
	}
	// Third get: rules exhausted — clean fetch, promoted.
	if _, ok := dst.Get(e.Key); !ok {
		t.Fatal("clean fetch after chaos rules exhausted missed")
	}
	if st := dst.Stats(); st.PeerHits != 1 {
		t.Fatalf("stats after clean fetch: %+v", st)
	}
}

func TestReadRawServesVerbatimImage(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	e := testEntry("raw", 50)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	raw, ok := s.ReadRaw(e.Key)
	if !ok {
		t.Fatal("ReadRaw missed a resident object")
	}
	disk, err := os.ReadFile(s.objectPath(e.Key))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(disk) {
		t.Fatal("ReadRaw bytes differ from the on-disk image")
	}
	if _, ok := s.ReadRaw(testKey("absent")); ok {
		t.Fatal("ReadRaw hit for absent key")
	}
	if _, ok := s.ReadRaw("../../etc/passwd"); ok {
		t.Fatal("ReadRaw accepted a path-shaped key")
	}
	// ReadRaw must not move cache counters.
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("ReadRaw moved counters: %+v", st)
	}
}
