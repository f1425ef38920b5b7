package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
)

func testKey(seed string) string {
	sum := sha256.Sum256([]byte(seed))
	return hex.EncodeToString(sum[:])
}

func testEntry(seed string, payloadBytes int) *cache.Entry {
	return &cache.Entry{
		Key:    testKey(seed),
		Report: []byte(`{"name":"` + seed + `"}`),
		Artifacts: map[string][]byte{
			"datasheet.txt": []byte(strings.Repeat(seed[:1], payloadBytes)),
		},
	}
}

func open(t *testing.T, dir string, budget int64) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir, BudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	e := testEntry("alpha", 100)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(e.Key)
	if !ok {
		t.Fatal("put then get missed")
	}
	if string(got.Report) != string(e.Report) {
		t.Fatalf("report %q != %q", got.Report, e.Report)
	}
	// A hit is report-resident: the report and the artifact sizes, no
	// bodies.
	if got.Artifacts != nil || got.Sizes["datasheet.txt"] != len(e.Artifacts["datasheet.txt"]) {
		t.Fatalf("hit carries artifacts %v and sizes %v, want sizes only", got.ArtifactNames(), got.Sizes)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMissAndInvalidKey(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	if _, ok := s.Get(testKey("nothing")); ok {
		t.Fatal("hit on empty store")
	}
	if _, ok := s.Get("../../etc/passwd"); ok {
		t.Fatal("path-shaped key must miss")
	}
	if err := s.Put(&cache.Entry{Key: "short"}); err == nil {
		t.Fatal("invalid key accepted by Put")
	}
	if s.Stats().Misses < 2 {
		t.Fatalf("misses %d", s.Stats().Misses)
	}
}

func TestRestartWarmIndexScan(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	for _, seed := range []string{"a", "b", "c"} {
		if err := s.Put(testEntry(seed, 50)); err != nil {
			t.Fatal(err)
		}
	}
	// "Restart": a brand-new store over the same directory.
	s2 := open(t, dir, 0)
	if got := s2.Stats().ScannedAtStartup; got != 3 {
		t.Fatalf("startup scan found %d objects, want 3", got)
	}
	for _, seed := range []string{"a", "b", "c"} {
		e, ok := s2.Get(testKey(seed))
		if !ok {
			t.Fatalf("object %s lost across restart", seed)
		}
		if !strings.Contains(string(e.Report), seed) {
			t.Fatalf("object %s content wrong: %s", seed, e.Report)
		}
	}
	if s2.Stats().Hits != 3 {
		t.Fatalf("hits %d", s2.Stats().Hits)
	}
}

func TestCorruptionQuarantinedNotServed(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	e := testEntry("victim", 200)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	// Truncate the committed object mid-payload.
	path := filepath.Join(dir, "objects", e.Key+".entry")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(e.Key); ok {
		t.Fatal("corrupt object served")
	}
	st := s.Stats()
	if st.Corrupt != 1 {
		t.Fatalf("corrupt counter %d, want 1", st.Corrupt)
	}
	if st.Entries != 0 {
		t.Fatalf("corrupt object still indexed: %+v", st)
	}
	if s.QuarantinedCount() != 1 {
		t.Fatalf("quarantine dir holds %d files, want 1", s.QuarantinedCount())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt object still under its serving name")
	}
	// The key is re-puttable after quarantine (recompile path).
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(e.Key); !ok {
		t.Fatal("recompiled object not served")
	}
}

// layout returns where an object image's manifest line and first
// section start.
func layout(t *testing.T, raw []byte) (manifest, body int) {
	t.Helper()
	manifest = bytes.IndexByte(raw, '\n') + 1
	nl := bytes.IndexByte(raw[manifest:], '\n')
	if manifest == 0 || nl < 0 {
		t.Fatalf("image has no header and manifest lines: %q", raw)
	}
	return manifest, manifest + nl + 1
}

// flip returns a copy of raw with the byte at i inverted.
func flip(raw []byte, i int) []byte {
	out := bytes.Clone(raw)
	out[i] ^= 0xff
	return out
}

// v2Image renders e in the previous object format, bisramstore2: a
// SHA-256 over the whole payload, sections without offsets or digests.
func v2Image(e *cache.Entry) []byte {
	type sec struct {
		Name string `json:"name"`
		Size int    `json:"size"`
	}
	m := struct {
		Key      string `json:"key"`
		Sections []sec  `json:"sections"`
	}{Key: e.Key, Sections: []sec{{"report", len(e.Report)}}}
	body := bytes.Clone(e.Report)
	for _, name := range e.ArtifactNames() {
		m.Sections = append(m.Sections, sec{"artifact:" + name, len(e.Artifacts[name])})
		body = append(body, e.Artifacts[name]...)
	}
	line, _ := json.Marshal(m)
	payload := append(append(line, '\n'), body...)
	sum := sha256.Sum256(payload)
	return append([]byte("bisramstore2 "+hex.EncodeToString(sum[:])+"\n"), payload...)
}

// TestCorruptionVariants: every damage a hit can see — a flip in the
// header, the manifest or the report, truncation or growth anywhere,
// foreign or previous-version images — quarantines the object.
func TestCorruptionVariants(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, raw []byte) []byte
	}{
		{"flipped-header", func(t *testing.T, raw []byte) []byte {
			return flip(raw, len(headerMagic)+5)
		}},
		{"flipped-manifest", func(t *testing.T, raw []byte) []byte {
			m, body := layout(t, raw)
			return flip(raw, (m+body)/2)
		}},
		{"flipped-manifest-newline", func(t *testing.T, raw []byte) []byte {
			_, body := layout(t, raw)
			return flip(raw, body-1)
		}},
		{"flipped-report", func(t *testing.T, raw []byte) []byte {
			_, body := layout(t, raw)
			return flip(raw, body+1)
		}},
		{"truncated-artifacts", func(t *testing.T, raw []byte) []byte {
			return raw[:len(raw)-10]
		}},
		{"truncated-manifest", func(t *testing.T, raw []byte) []byte {
			m, body := layout(t, raw)
			return raw[:(m+body)/2]
		}},
		{"grown", func(t *testing.T, raw []byte) []byte {
			return append(bytes.Clone(raw), 'x')
		}},
		{"v2-object", func(*testing.T, []byte) []byte {
			return v2Image(testEntry("x", 64))
		}},
		{"bad-magic", func(t *testing.T, raw []byte) []byte {
			return append([]byte("wrongmagic deadbeef\n"), raw...)
		}},
		{"empty", func(*testing.T, []byte) []byte { return nil }},
		{"no-newline", func(*testing.T, []byte) []byte { return []byte("bisramstore1 abc") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, 0)
			e := testEntry("x", 64)
			if err := s.Put(e); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "objects", e.Key+".entry")
			raw, _ := os.ReadFile(path)
			if err := os.WriteFile(path, tc.mutate(t, raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(e.Key); ok {
				t.Fatal("corrupt variant served")
			}
			if s.Stats().Corrupt != 1 || s.QuarantinedCount() != 1 {
				t.Fatalf("corrupt counter %d, quarantined %d", s.Stats().Corrupt, s.QuarantinedCount())
			}
		})
	}
}

// TestArtifactFlipServesVerifiedReport: a hit reads and verifies only
// the header, the manifest and the report, so a flipped byte inside an
// artifact section leaves the hit serving that verified report — never
// a byte of the damaged section. The same image fetched by a peer is
// rejected (TestPeerFetchRejectsArtifactFlip).
func TestArtifactFlipServesVerifiedReport(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	e := testEntry("x", 64)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "objects", e.Key+".entry")
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, flip(raw, len(raw)-3), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(e.Key)
	if !ok {
		t.Fatal("hit refused although header, manifest and report verify")
	}
	if string(got.Report) != string(e.Report) || got.Artifacts != nil ||
		got.Sizes["datasheet.txt"] != len(e.Artifacts["datasheet.txt"]) {
		t.Fatalf("hit served %q, artifacts %v, sizes %v", got.Report, got.ArtifactNames(), got.Sizes)
	}
	if st := s.Stats(); st.Corrupt != 0 || s.QuarantinedCount() != 0 {
		t.Fatalf("report-verified hit quarantined: %+v", st)
	}
}

func TestWrongKeyObjectQuarantined(t *testing.T) {
	// An object whose payload claims a different key than its filename
	// (e.g. a manually renamed file) must not be served.
	dir := t.TempDir()
	s := open(t, dir, 0)
	e := testEntry("real", 32)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, "objects", e.Key+".entry")
	dst := filepath.Join(dir, "objects", testKey("imposter")+".entry")
	raw, _ := os.ReadFile(src)
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, 0)
	if _, ok := s2.Get(testKey("imposter")); ok {
		t.Fatal("renamed object served under the wrong key")
	}
	if s2.Stats().Corrupt != 1 {
		t.Fatalf("corrupt %d", s2.Stats().Corrupt)
	}
}

func TestByteBudgetGCEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	e1, e2, e3 := testEntry("1", 400), testEntry("2", 400), testEntry("3", 400)
	// Budget sized for two and a half of the three objects.
	probe := open(t, t.TempDir(), 0)
	if err := probe.Put(e1); err != nil {
		t.Fatal(err)
	}
	one := probe.Stats().Bytes
	s := open(t, dir, 2*one+one/2)
	if err := s.Put(e1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := s.Put(e2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	// Touch e1 so e2 becomes the LRU.
	if _, ok := s.Get(e1.Key); !ok {
		t.Fatal("e1 missing")
	}
	time.Sleep(5 * time.Millisecond)
	if err := s.Put(e3); err != nil {
		t.Fatal(err)
	}
	if s.Contains(e2.Key) {
		t.Fatal("LRU object e2 survived GC")
	}
	if !s.Contains(e1.Key) || !s.Contains(e3.Key) {
		t.Fatalf("recently-used objects evicted: e1=%v e3=%v", s.Contains(e1.Key), s.Contains(e3.Key))
	}
	st := s.Stats()
	if st.Evictions < 1 {
		t.Fatalf("evictions %d", st.Evictions)
	}
	if st.Bytes > st.BudgetBytes {
		t.Fatalf("resident %d exceeds budget %d", st.Bytes, st.BudgetBytes)
	}
	// The evicted file is really gone from disk.
	if _, err := os.Stat(filepath.Join(dir, "objects", e2.Key+".entry")); !os.IsNotExist(err) {
		t.Fatal("evicted object still on disk")
	}
}

func TestOversizedObjectRejected(t *testing.T) {
	s := open(t, t.TempDir(), 128)
	if err := s.Put(testEntry("big", 4096)); err == nil {
		t.Fatal("object larger than the whole budget accepted")
	}
	if s.Stats().Rejected != 1 {
		t.Fatalf("rejected %d", s.Stats().Rejected)
	}
}

func TestOpenHonoursShrunkBudget(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	for i := 0; i < 5; i++ {
		if err := s.Put(testEntry(fmt.Sprintf("obj%d", i), 500)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	total := s.Stats().Bytes
	s2 := open(t, dir, total/2)
	st := s2.Stats()
	if st.Bytes > total/2 {
		t.Fatalf("reopened store over budget: %d > %d", st.Bytes, total/2)
	}
	if st.Entries >= 5 {
		t.Fatalf("no objects evicted on shrunk reopen: %+v", st)
	}
}

func TestTempFilesSweptOnOpen(t *testing.T) {
	dir := t.TempDir()
	open(t, dir, 0) // create layout
	junk := filepath.Join(dir, "tmp", "put-crashed")
	if err := os.WriteFile(junk, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	open(t, dir, 0)
	if _, err := os.Stat(junk); !os.IsNotExist(err) {
		t.Fatal("abandoned temp file survived reopen")
	}
}

// TestWriteAtomicRemovesTemp: a write whose rename fails returns the
// error and leaves the temp directory empty; a write that succeeds
// leaves its parts, in order, under the path and nothing in the temp
// directory either.
func TestWriteAtomicRemovesTemp(t *testing.T) {
	tmp, dir := t.TempDir(), t.TempDir()
	tempFiles := func() int {
		t.Helper()
		ents, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	if err := WriteAtomic(tmp, filepath.Join(dir, "missing", "obj"), []byte("a")); err == nil {
		t.Fatal("rename into a missing directory reported success")
	}
	if n := tempFiles(); n != 0 {
		t.Fatalf("failed write left %d temp files", n)
	}
	path := filepath.Join(dir, "obj")
	if err := WriteAtomic(tmp, path, []byte("head "), nil, []byte("body")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "head body" {
		t.Fatalf("committed %q (%v), want %q", got, err, "head body")
	}
	if n := tempFiles(); n != 0 {
		t.Fatalf("committed write left %d temp files", n)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := open(t, t.TempDir(), 1<<20)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				seed := fmt.Sprintf("w%d-%d", i, j%5)
				if err := s.Put(testEntry(seed, 64)); err != nil {
					t.Error(err)
					return
				}
				if e, ok := s.Get(testKey(seed)); ok && e.Key != testKey(seed) {
					t.Errorf("wrong entry under %s", seed)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if s.Stats().Bytes < 0 {
		t.Fatalf("negative resident size: %+v", s.Stats())
	}
}

func TestQuarantineCapEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	s.qMaxObj = 2
	corruptAndGet := func(seed string) {
		t.Helper()
		e := testEntry(seed, 100)
		if err := s.Put(e); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "objects", e.Key+".entry")
		if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(e.Key); ok {
			t.Fatal("corrupt object served")
		}
		// Quarantine names and eviction order use mtime at nanosecond
		// granularity; keep orderings distinct on coarse filesystems.
		time.Sleep(5 * time.Millisecond)
	}
	for _, seed := range []string{"q1", "q2", "q3", "q4"} {
		corruptAndGet(seed)
	}
	st := s.Stats()
	if st.QuarantineObjects != 2 {
		t.Fatalf("quarantine holds %d objects, want 2 (stats %+v)", st.QuarantineObjects, st)
	}
	if st.QuarantineEvictions != 2 {
		t.Fatalf("quarantine evictions %d, want 2", st.QuarantineEvictions)
	}
	if got := s.QuarantinedCount(); got != 2 {
		t.Fatalf("quarantine dir holds %d files, want 2", got)
	}
	// The survivors are the two newest quarantined files.
	ents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, testKey("q1")) || strings.HasPrefix(name, testKey("q2")) {
			t.Fatalf("oldest quarantined file %s survived eviction", name)
		}
	}
}

func TestQuarantineByteCapAndRestartScan(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	var oneSize int64
	for i, seed := range []string{"b1", "b2", "b3"} {
		e := testEntry(seed, 300)
		if err := s.Put(e); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "objects", e.Key+".entry")
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			oneSize = info.Size()
		}
		raw, _ := os.ReadFile(path)
		_, body := layout(t, raw)
		os.WriteFile(path, flip(raw, body), 0o644)
		if _, ok := s.Get(e.Key); ok {
			t.Fatal("corrupt object served")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.Stats().QuarantineObjects; got != 3 {
		t.Fatalf("quarantine holds %d, want 3", got)
	}
	// An earlier run left more files than the count cap allows, all
	// older than the three above: one byte each, oldest first.
	qdir := filepath.Join(dir, "quarantine")
	stale := func(i int) string { return filepath.Join(qdir, fmt.Sprintf("stale-%02d.entry", i)) }
	old := time.Now().Add(-time.Hour)
	for i := 0; i < maxQuarantineFiles+1-3; i++ {
		if err := os.WriteFile(stale(i), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		mt := old.Add(time.Duration(i) * time.Second)
		if err := os.Chtimes(stale(i), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Restart: the opening scan must seed the totals from disk and
	// enforce the caps immediately, evicting the oldest file.
	s2 := open(t, dir, 0)
	st := s2.Stats()
	if st.QuarantineObjects != maxQuarantineFiles || st.QuarantineEvictions != 1 {
		t.Fatalf("after restart, quarantine holds %d objects after %d evictions, want %d after 1 (stats %+v)",
			st.QuarantineObjects, st.QuarantineEvictions, maxQuarantineFiles, st)
	}
	if got := s2.QuarantinedCount(); got != maxQuarantineFiles {
		t.Fatalf("after restart, quarantine dir holds %d files, want %d", got, maxQuarantineFiles)
	}
	if _, err := os.Stat(stale(0)); !os.IsNotExist(err) {
		t.Fatalf("oldest quarantined file survived the opening scan (%v)", err)
	}
	// A byte cap that fits roughly one object evicts the stale files
	// and the two oldest objects.
	s2.mu.Lock()
	s2.qMaxB = oneSize + oneSize/2
	s2.gcQuarantineLocked()
	s2.mu.Unlock()
	st = s2.Stats()
	if st.QuarantineObjects != 1 {
		t.Fatalf("with byte cap, quarantine holds %d objects, want 1 (stats %+v)", st.QuarantineObjects, st)
	}
	if st.QuarantineBytes > oneSize+oneSize/2 {
		t.Fatalf("quarantine bytes %d over cap %d", st.QuarantineBytes, oneSize+oneSize/2)
	}
	ents, err := os.ReadDir(qdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || !strings.HasPrefix(ents[0].Name(), testKey("b3")) {
		t.Fatalf("byte cap kept %v, want only the newest object", ents)
	}
}
