// Package store is the disk tier of the service's two-tier artifact
// cache: a content-addressed object store with one file per content
// key, layered under the report-resident internal/cache LRU so a daemon
// restart keeps the working set warm.
//
// Guarantees:
//
//   - Atomic writes: every object is written by WriteAtomic — a temp
//     file in the store directory renamed into place — so a crash
//     mid-write can never leave a half-object under a valid name. The
//     sweep journal writes its records the same way.
//   - Report-first verified reads: an object's header carries the
//     SHA-256 of a manifest that lists every section's offset, size and
//     SHA-256, the report's first. Get reads only the header, the
//     manifest and the report, verifies all three, compares the file's
//     real length with the manifest, and returns a report-resident
//     entry (report, Degraded flag, artifact sizes). A flipped byte in
//     what it reads, or truncation or growth anywhere, is detected:
//     the file is moved into quarantine/ — never deleted, an operator
//     may want the evidence — and the read reports a miss so the caller
//     recompiles. Artifact bodies are served from a finished job's own
//     entry, never from the store, so Get never reads them.
//   - Byte-budget GC: when the resident size exceeds the configured
//     budget the least-recently-accessed objects are removed first.
//     Access times survive restarts (Get touches the file mtime), so
//     LRU ordering is continuous across process bounces.
//   - Startup index scan: Open walks the directory once, recording
//     sizes and access times without reading object payloads;
//     verification is deferred to first read.
//   - Peer fetch: with SetPeerFetch installed (cluster deployments), a
//     local miss consults ring peers for the raw object image before
//     giving up. A fetched image is promoted to a local object file only
//     when every one of its sections verifies — a corrupt peer image
//     quarantines exactly like disk rot — so each object transfers
//     between shards at most once, and an artifact section is verified
//     by the shard that fetches it.
//
// The key is internal/canon's content address of the fully-validated
// compile inputs, so — exactly like the memory tier — a hit is always
// semantically correct to serve.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"

	"repro/internal/cache"
	"repro/internal/cerr"
	"repro/internal/chaos"
)

const (
	// objectExt is the suffix of committed object files.
	objectExt = ".entry"
	// objectsDir, quarantineDir and tmpDir are the store's
	// subdirectories.
	objectsDir    = "objects"
	quarantineDir = "quarantine"
	tmpDir        = "tmp"
	// headerMagic leads every object file; the version digit is bumped
	// when the on-disk format changes (old files then quarantine on
	// read and are recompiled, never misread). Version 3 is report
	// first:
	//
	//	bisramstore3 <hex SHA-256 of the manifest line>\n
	//	<manifest: one line, see manifest>\n
	//	<report><artifact sections, sorted by name>
	//
	// A disk hit therefore costs a few kilobytes of reading and hashing
	// whatever the layout size — version 2 hashed the whole object,
	// 96 % of it layout.gds — and v2 objects, including v2 images a
	// not-yet-upgraded peer serves, quarantine once and recompile.
	headerMagic = "bisramstore3"
	// headRead is the first read of a disk hit. The header, the manifest
	// and the report of the daemon's objects (about 1.5 KB each) fit in
	// it; longer ones cost a second read.
	headRead = 4 << 10
)

// Config sizes a store.
type Config struct {
	// Dir is the store root; created if absent.
	Dir string
	// BudgetBytes bounds the resident object bytes; <= 0 means
	// unbounded (no GC).
	BudgetBytes int64
	// Chaos, when non-nil, injects scripted disk faults at the
	// store.write and store.read points.
	Chaos *chaos.Injector
}

// Quarantine caps. Quarantine is forensic evidence, not a cache: beyond
// either cap the oldest files go.
const (
	maxQuarantineFiles = 32
	maxQuarantineBytes = 64 << 20
)

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Puts   uint64 `json:"puts"`
	// Evictions counts objects removed by the byte-budget GC.
	Evictions uint64 `json:"evictions"`
	// Corrupt counts objects that failed SHA-256 (or envelope)
	// verification on read and were quarantined.
	Corrupt uint64 `json:"corrupt"`
	// Rejected counts puts refused because a single object exceeded
	// the whole budget.
	Rejected uint64 `json:"rejected"`
	// PeerHits / PeerMisses / PeerCorrupt count ring-peer fetches on
	// local miss: served and promoted, not found anywhere (or fetch
	// failed), and failed verification (quarantined) respectively.
	PeerHits    uint64 `json:"peer_hits"`
	PeerMisses  uint64 `json:"peer_misses"`
	PeerCorrupt uint64 `json:"peer_corrupt"`
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	BudgetBytes int64  `json:"budget_bytes"`
	// ScannedAtStartup is how many committed objects the opening index
	// scan found — the restart-warmness headline number.
	ScannedAtStartup int `json:"scanned_at_startup"`
	// QuarantineObjects / QuarantineBytes describe the current
	// quarantine directory; QuarantineEvictions counts files dropped
	// by the quarantine cap (oldest first).
	QuarantineObjects   int    `json:"quarantine_objects"`
	QuarantineBytes     int64  `json:"quarantine_bytes"`
	QuarantineEvictions uint64 `json:"quarantine_evictions"`
}

// meta is the in-memory index record for one committed object.
type meta struct {
	size  int64
	atime time.Time
}

// Store is the disk tier. Construct with Open; safe for concurrent
// use.
type Store struct {
	dir    string
	budget int64
	// qMaxObj and qMaxB are the quarantine caps.
	qMaxObj int
	qMaxB   int64
	chaos   *chaos.Injector

	mu      sync.Mutex
	index   map[string]*meta
	bytes   int64
	scanned int

	peerFetch PeerFetchFunc

	qObjects   int
	qBytes     int64
	qEvictions uint64

	hits, misses, puts, evictions, corrupt, rejected uint64
	peerHits, peerMisses, peerCorrupt                uint64
}

// PeerFetchFunc resolves a local miss against cluster peers: it
// returns the raw object-file image (header + payload, exactly as
// ReadRaw serves it) and whether any peer had it. The store verifies
// the image before trusting it, so implementations need not.
type PeerFetchFunc func(key string) (raw []byte, ok bool)

// SetPeerFetch installs (or, with nil, removes) the cluster peer
// resolver consulted on local miss.
func (s *Store) SetPeerFetch(fn PeerFetchFunc) {
	s.mu.Lock()
	s.peerFetch = fn
	s.mu.Unlock()
}

// manifest is an object's second line: entry metadata plus the byte
// layout of the raw sections that follow it, as space-separated
// fields — a plain line rather than JSON, so a disk hit parses it
// without reflection:
//
//	<key> <degraded: 0 or 1> <saved_at> then, per section, <name> <offset> <size> <sha256>
//
// Section offsets count from the first byte after the manifest line.
// Sections lie end to end in manifest order, the report first, and
// exactly fill the rest of the file.
type manifest struct {
	Key      string
	Degraded bool
	// SavedAt is informational (forensics on quarantined files).
	SavedAt  string
	Sections []section
}

// section names one raw byte range — "report" for the entry's report
// document, "artifact:<name>" for each artifact — with its offset from
// the first section byte, its size and its hex SHA-256.
type section struct {
	Name   string
	Offset int64
	Size   int64
	SHA256 string
}

// appendLine appends m's line, newline included.
func (m *manifest) appendLine(dst []byte) []byte {
	dst = append(dst, m.Key...)
	dst = append(dst, " 0 "...)
	if m.Degraded {
		dst[len(dst)-2] = '1'
	}
	dst = append(dst, m.SavedAt...)
	for _, sec := range m.Sections {
		dst = append(append(dst, ' '), sec.Name...)
		dst = strconv.AppendInt(append(dst, ' '), sec.Offset, 10)
		dst = strconv.AppendInt(append(dst, ' '), sec.Size, 10)
		dst = append(append(dst, ' '), sec.SHA256...)
	}
	return append(dst, '\n')
}

// parseManifest parses a manifest line, newline excluded.
func parseManifest(line []byte) (manifest, error) {
	f := strings.Fields(string(line))
	if len(f) < 3 || (len(f)-3)%4 != 0 {
		return manifest{}, fmt.Errorf("manifest has %d fields", len(f))
	}
	m := manifest{Key: f[0], Degraded: f[1] == "1", SavedAt: f[2], Sections: make([]section, 0, (len(f)-3)/4)}
	if f[1] != "0" && f[1] != "1" {
		return manifest{}, fmt.Errorf("manifest degraded flag %q", f[1])
	}
	for i := 3; i < len(f); i += 4 {
		off, err := strconv.ParseInt(f[i+1], 10, 64)
		if err != nil {
			return manifest{}, fmt.Errorf("section %q offset: %w", f[i], err)
		}
		size, err := strconv.ParseInt(f[i+2], 10, 64)
		if err != nil {
			return manifest{}, fmt.Errorf("section %q size: %w", f[i], err)
		}
		m.Sections = append(m.Sections, section{Name: f[i], Offset: off, Size: size, SHA256: f[i+3]})
	}
	return m, nil
}

// Open creates the directory layout, scans committed objects into the
// index (sizes and mtimes only — payloads are verified lazily on
// read) and clears any abandoned temp files from a previous crash.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, cerr.New(cerr.CodeInvalidParams, "store: empty directory")
	}
	s := &Store{
		dir:     cfg.Dir,
		budget:  cfg.BudgetBytes,
		qMaxObj: maxQuarantineFiles,
		qMaxB:   maxQuarantineBytes,
		chaos:   cfg.Chaos,
		index:   map[string]*meta{},
	}
	for _, sub := range []string{objectsDir, quarantineDir, tmpDir} {
		if err := os.MkdirAll(filepath.Join(cfg.Dir, sub), 0o755); err != nil {
			return nil, cerr.Wrap(cerr.CodeInternal, err, "store: creating %s", sub)
		}
	}
	ClearTemp(filepath.Join(cfg.Dir, tmpDir))
	ents, err := os.ReadDir(filepath.Join(cfg.Dir, objectsDir))
	if err != nil {
		return nil, cerr.Wrap(cerr.CodeInternal, err, "store: scanning objects")
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, objectExt) {
			continue
		}
		key := strings.TrimSuffix(name, objectExt)
		if !ValidKey(key) {
			continue
		}
		info, ierr := e.Info()
		if ierr != nil {
			continue
		}
		s.index[key] = &meta{size: info.Size(), atime: info.ModTime()}
		s.bytes += info.Size()
	}
	s.scanned = len(s.index)
	// Quarantined files from previous runs count against the caps too:
	// seed the totals from disk, then enforce them immediately.
	if qents, err := os.ReadDir(filepath.Join(cfg.Dir, quarantineDir)); err == nil {
		for _, e := range qents {
			if e.IsDir() {
				continue
			}
			s.qObjects++
			if info, ierr := e.Info(); ierr == nil {
				s.qBytes += info.Size()
			}
		}
	}
	// A budget smaller than what survived on disk is honoured
	// immediately, oldest first.
	s.mu.Lock()
	s.gcLocked()
	s.gcQuarantineLocked()
	s.mu.Unlock()
	return s, nil
}

// ValidKey accepts only 64-hex-digit content addresses, keeping path
// construction from a key injection-proof.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, objectsDir, key+objectExt)
}

// WriteAtomic is the durable write of the store and the sweep journal:
// it writes parts, in order, to a new temp file in tmpDir, closes it
// and renames it onto path, so a crash never leaves a partial file
// under path. On any failure it removes the temp file. tmpDir must be
// on path's filesystem; ClearTemp empties it of a crash's leftovers.
func WriteAtomic(tmpDir, path string, parts ...[]byte) error {
	tmp, err := os.CreateTemp(tmpDir, "w-*")
	if err != nil {
		return err
	}
	for _, p := range parts {
		if _, err = tmp.Write(p); err != nil {
			break
		}
	}
	if closeErr := tmp.Close(); err == nil {
		err = closeErr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// ClearTemp removes every file in a WriteAtomic temp directory. Each is
// an abandoned write whose rename never happened, garbage by
// construction; clearing them at open keeps them from accumulating.
func ClearTemp(tmpDir string) {
	ents, _ := os.ReadDir(tmpDir)
	for _, e := range ents {
		os.Remove(filepath.Join(tmpDir, e.Name()))
	}
}

// Put persists the entry under its content key — header and manifest
// lines, then the report and every artifact body the entry carries —
// through commit. An entry without bodies (a report-resident one)
// persists as a report-only object.
func (s *Store) Put(e *cache.Entry) error {
	if !ValidKey(e.Key) {
		return cerr.New(cerr.CodeInvalidParams, "store: invalid content key %q", e.Key)
	}
	if err := s.chaos.Fail(chaos.PointStoreWrite); err != nil {
		return cerr.Wrap(cerr.CodeInternal, err, "store: writing %s", e.Key)
	}
	parts, err := encodeObject(e)
	if err != nil {
		return cerr.Wrap(cerr.CodeInternal, err, "store: encoding %s", e.Key)
	}
	if err := s.commit(e.Key, parts...); err != nil {
		return err
	}
	s.mu.Lock()
	s.puts++
	s.mu.Unlock()
	return nil
}

// commit writes an object image under key — the write half of Put and
// of a peer image's promotion. An image larger than the whole budget is
// rejected; otherwise it is written by WriteAtomic, indexed, and the
// byte-budget GC runs.
func (s *Store) commit(key string, parts ...[]byte) error {
	var size int64
	for _, p := range parts {
		size += int64(len(p))
	}
	s.mu.Lock()
	if s.budget > 0 && size > s.budget {
		s.rejected++
		s.mu.Unlock()
		return cerr.New(cerr.CodeInvalidParams,
			"store: object %s (%d bytes) exceeds the whole budget (%d)", key, size, s.budget)
	}
	s.mu.Unlock()
	if err := WriteAtomic(filepath.Join(s.dir, tmpDir), s.objectPath(key), parts...); err != nil {
		return cerr.Wrap(cerr.CodeInternal, err, "store: writing %s", key)
	}
	s.mu.Lock()
	if old, ok := s.index[key]; ok {
		s.bytes -= old.size
	}
	s.index[key] = &meta{size: size, atime: time.Now()}
	s.bytes += size
	s.gcLocked()
	s.mu.Unlock()
	return nil
}

// Get reads and verifies the report-resident entry for key: the
// header, the manifest and the report, checked against the file's real
// length (see readHit). A verification failure quarantines the file
// and reports a miss. On a hit the object's access time is refreshed in
// the index and on disk (os.Chtimes), so LRU ordering survives
// restarts.
func (s *Store) Get(key string) (*cache.Entry, bool) {
	if !ValidKey(key) {
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Lock()
	_, known := s.index[key]
	s.mu.Unlock()
	if !known {
		// Last tier before recompiling: ask ring peers for the object.
		if entry, ok := s.fetchFromPeers(key); ok {
			return entry, true
		}
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, false
	}

	if err := s.chaos.Fail(chaos.PointStoreRead); err != nil {
		// Injected unreadable file: report a miss (the caller
		// recompiles) without dropping the index — the object on disk
		// is intact and serves normally on the next read.
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	path := s.objectPath(key)
	f, err := os.Open(path)
	if err != nil {
		// Index said present but the file is gone (external deletion):
		// treat as a miss and drop the index record.
		s.dropIndex(key)
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	entry, verr := s.readHit(key, f)
	f.Close()
	if verr != nil {
		s.quarantine(key, nil)
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, false
	}

	now := time.Now()
	os.Chtimes(path, now, now) // best-effort: LRU continuity across restarts
	s.mu.Lock()
	if m, ok := s.index[key]; ok {
		m.atime = now
	}
	s.hits++
	s.mu.Unlock()
	return entry, true
}

// readHit reads what a hit verifies — the header, the manifest and the
// report, never an artifact section — and verifies it against the
// file's real length, so truncation anywhere fails like a flipped bit.
func (s *Store) readHit(key string, f *os.File) (*cache.Entry, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := info.Size()
	img := make([]byte, min(size, headRead))
	if _, err := f.ReadAt(img, 0); err != nil {
		return nil, err
	}
	h, err := parseHead(key, img, size)
	if errors.Is(err, errShortHead) && int64(len(img)) < size {
		// The manifest outruns the first read: take the whole file.
		img = make([]byte, size)
		if _, err := f.ReadAt(img, 0); err != nil {
			return nil, err
		}
		h, err = parseHead(key, img, size)
	}
	if err != nil {
		return nil, err
	}
	end := h.body + int(h.m.Sections[0].Size)
	if n := len(img); end > n {
		img = append(img, make([]byte, end-n)...)
		if _, err := f.ReadAt(img[n:], int64(n)); err != nil {
			return nil, err
		}
	}
	img = img[:end]
	// An injected bit-flip lands on the bytes read, exactly like disk
	// bit rot: verification must catch it and quarantine the (now
	// genuinely corrupted) file. Only the bytes read go back, so the
	// drill flips a bit on disk and never truncates the object. The
	// write-back is best-effort: the flip in img fails verification
	// either way.
	if s.chaos.Corrupt(chaos.PointStoreRead, img) {
		if w, err := os.OpenFile(f.Name(), os.O_WRONLY, 0); err == nil {
			_, _ = w.WriteAt(img, 0)
			_ = w.Close()
		}
	}
	return h.verify(img)
}

// fetchFromPeers runs the peer tier of a Get: resolve the raw image
// via the installed PeerFetchFunc, verify all of it — header, manifest
// and every section — quarantining corrupt bytes for forensics, and
// promote a good image to a local object file so the next read is a
// plain disk hit. Reports (nil, false) when no resolver is installed,
// no peer has the object, or verification fails.
func (s *Store) fetchFromPeers(key string) (*cache.Entry, bool) {
	s.mu.Lock()
	fn := s.peerFetch
	s.mu.Unlock()
	if fn == nil {
		return nil, false
	}
	if err := s.chaos.Fail(chaos.PointPeerFetch); err != nil {
		// Injected fetch failure: the shard recompiles, exactly as if no
		// peer had the object.
		s.mu.Lock()
		s.peerMisses++
		s.mu.Unlock()
		return nil, false
	}
	raw, ok := fn(key)
	if !ok {
		s.mu.Lock()
		s.peerMisses++
		s.mu.Unlock()
		return nil, false
	}
	// An injected bit-flip lands on the fetched image, standing in for
	// a peer with rotten disk or a mangling transport: verification
	// below, which covers every section, must catch it.
	s.chaos.Corrupt(chaos.PointPeerFetch, raw)
	entry, verr := decodeObject(key, raw)
	if verr != nil {
		// The Get fall-through accounts the overall miss.
		s.quarantine(key, raw)
		s.mu.Lock()
		s.peerCorrupt++
		s.mu.Unlock()
		return nil, false
	}
	// Promotion is best-effort: a failure only costs a future re-fetch.
	_ = s.commit(key, raw)
	s.mu.Lock()
	s.peerHits++
	s.hits++
	s.mu.Unlock()
	return entry, true
}

// ReadRaw returns the verbatim object-file image for key, for serving
// to cluster peers. The bytes are NOT verified here: the fetching side
// runs them through decodeObject before promoting, so a corrupt image
// quarantines on the fetcher exactly like local disk rot. Hit/miss
// counters don't move — peer traffic must not distort this shard's
// cache stats.
func (s *Store) ReadRaw(key string) ([]byte, bool) {
	if !ValidKey(key) {
		return nil, false
	}
	s.mu.Lock()
	_, known := s.index[key]
	s.mu.Unlock()
	if !known {
		return nil, false
	}
	raw, err := os.ReadFile(s.objectPath(key))
	if err != nil {
		// Index said present but the file is gone: self-heal the index.
		s.dropIndex(key)
		return nil, false
	}
	return raw, true
}

// encodeObject renders the object for e as the pieces to write in
// order: the header and manifest lines, then the raw sections (report
// first, then the artifacts sorted by name for deterministic bytes).
// The sections are e's own buffers, not copies.
func encodeObject(e *cache.Entry) ([][]byte, error) {
	names := e.ArtifactNames()
	m := manifest{
		Key:      e.Key,
		Degraded: e.Degraded,
		SavedAt:  time.Now().UTC().Format(time.RFC3339),
		Sections: make([]section, 0, 1+len(names)),
	}
	parts := make([][]byte, 1, 2+len(names))
	var off int64
	add := func(name string, body []byte) {
		sum := sha256.Sum256(body)
		m.Sections = append(m.Sections, section{Name: name, Offset: off,
			Size: int64(len(body)), SHA256: hex.EncodeToString(sum[:])})
		parts = append(parts, body)
		off += int64(len(body))
	}
	add("report", e.Report)
	for _, name := range names {
		// A manifest field cannot hold a space.
		if strings.ContainsFunc(name, unicode.IsSpace) {
			return nil, fmt.Errorf("artifact name %q holds a space", name)
		}
		add("artifact:"+name, e.Artifacts[name])
	}
	line := m.appendLine(nil)
	parts[0] = append(appendHeader(make([]byte, 0, headerLen+len(line)), line), line...)
	return parts, nil
}

// headerLen is the length of an object's header line, newline
// included.
const headerLen = len(headerMagic) + 1 + 2*sha256.Size + 1

// appendHeader appends the header line that vouches for manifest (the
// manifest line, newline included).
func appendHeader(dst, manifest []byte) []byte {
	sum := sha256.Sum256(manifest)
	dst = append(dst, headerMagic+" "...)
	dst = hex.AppendEncode(dst, sum[:])
	return append(dst, '\n')
}

// errShortHead reports an image prefix that ends before the manifest
// line does.
var errShortHead = errors.New("image ends inside the header or manifest line")

// head is an object's header and manifest lines, parsed and checked
// for layout but not yet for digests.
type head struct {
	m manifest
	// body is the file offset of the first section: the length of the
	// header and manifest lines, newlines included.
	body int
}

// parseHead parses the header and manifest lines that start img, the
// leading bytes of an object size bytes long, and checks the layout
// the manifest claims: it names key, its first section is the report,
// and its sections lie end to end and exactly fill the file. Digests
// are verify's job. It returns errShortHead when img ends before the
// manifest line does.
func parseHead(key string, img []byte, size int64) (head, error) {
	var h head
	nl := bytes.IndexByte(img, '\n')
	if nl < 0 {
		return h, errShortHead
	}
	if nl+1 != headerLen || !bytes.HasPrefix(img, []byte(headerMagic+" ")) {
		return h, fmt.Errorf("bad header %q", img[:nl])
	}
	mnl := bytes.IndexByte(img[headerLen:], '\n')
	if mnl < 0 {
		return h, errShortHead
	}
	h.body = headerLen + mnl + 1
	var err error
	if h.m, err = parseManifest(img[headerLen : h.body-1]); err != nil {
		return h, err
	}
	if h.m.Key != key {
		return h, fmt.Errorf("object claims key %s", h.m.Key)
	}
	if len(h.m.Sections) == 0 || h.m.Sections[0].Name != "report" {
		return h, fmt.Errorf("first section is not the report")
	}
	rest := size - int64(h.body)
	var off int64
	for _, sec := range h.m.Sections {
		// Bound each size by what is left rather than testing off+Size,
		// which a crafted size overflows.
		if sec.Offset != off || sec.Size < 0 || sec.Size > rest-off {
			return h, fmt.Errorf("section %q (offset %d, size %d) does not follow at %d inside %d bytes",
				sec.Name, sec.Offset, sec.Size, off, rest)
		}
		off += sec.Size
	}
	if off != rest {
		return h, fmt.Errorf("sections cover %d of the %d bytes after the manifest", off, rest)
	}
	return h, nil
}

// verify checks img — an object's leading bytes through at least the
// report — against h: the header line must vouch for the manifest line
// as img holds them now, and every section lying wholly inside img must
// match its digest. It returns the report-resident entry; its report
// and strings are copied out of img and the manifest, so the entry never
// pins either.
func (h *head) verify(img []byte) (*cache.Entry, error) {
	if !bytes.Equal(img[:headerLen], appendHeader(make([]byte, 0, headerLen), img[headerLen:h.body])) {
		return nil, fmt.Errorf("manifest SHA-256 mismatch")
	}
	e := &cache.Entry{Key: strings.Clone(h.m.Key), Degraded: h.m.Degraded}
	for i, sec := range h.m.Sections {
		if name, ok := strings.CutPrefix(sec.Name, "artifact:"); ok {
			if e.Sizes == nil {
				e.Sizes = map[string]int{}
			}
			e.Sizes[strings.Clone(name)] = int(sec.Size)
		}
		start := int64(h.body) + sec.Offset
		if start+sec.Size > int64(len(img)) {
			if i == 0 {
				return nil, fmt.Errorf("report not read")
			}
			continue // never read: a hit does not verify artifact sections
		}
		data := img[start : start+sec.Size]
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != sec.SHA256 {
			return nil, fmt.Errorf("section %q SHA-256 mismatch", sec.Name)
		}
		if i == 0 {
			e.Report = bytes.Clone(data)
		}
	}
	return e, nil
}

// decodeObject verifies a whole object image — header, manifest and
// every section — and returns its report-resident entry. A peer image
// is promoted only when this accepts it.
func decodeObject(key string, raw []byte) (*cache.Entry, error) {
	h, err := parseHead(key, raw, int64(len(raw)))
	if err != nil {
		return nil, err
	}
	return h.verify(raw)
}

// quarantine moves corrupt bytes for key out of the serving path into
// quarantine/, timestamped so repeated corruption of the same key never
// collides. With raw nil they are the committed object file, which is
// renamed there (or removed, if the rename fails, so the corrupt bytes
// can never be served) and dropped from the index; otherwise raw is an
// image that never had a file of its own (a peer-fetched object) and
// is written there. The quarantine directory is bounded (count and
// bytes, oldest first): it is forensic evidence, and a flaky disk must
// not fill the volume with it. The caller accounts the miss.
func (s *Store) quarantine(key string, raw []byte) {
	dest := filepath.Join(s.dir, quarantineDir,
		fmt.Sprintf("%s.%d%s", key, time.Now().UnixNano(), objectExt))
	var kept int64
	if raw != nil {
		if os.WriteFile(dest, raw, 0o644) == nil {
			kept = int64(len(raw))
		}
	} else {
		path := s.objectPath(key)
		if err := os.Rename(path, dest); err != nil {
			os.Remove(path)
		} else if info, ierr := os.Stat(dest); ierr == nil {
			kept = info.Size()
		}
		s.dropIndex(key)
	}
	s.mu.Lock()
	s.corrupt++
	if kept > 0 {
		s.qObjects++
		s.qBytes += kept
		s.gcQuarantineLocked()
	}
	s.mu.Unlock()
}

// gcQuarantineLocked removes the oldest quarantined files (by mtime)
// until both the count and byte caps hold. Caller holds s.mu.
func (s *Store) gcQuarantineLocked() {
	over := func() bool { return s.qObjects > s.qMaxObj || s.qBytes > s.qMaxB }
	if !over() {
		return
	}
	dir := filepath.Join(s.dir, quarantineDir)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	type qf struct {
		name  string
		size  int64
		mtime time.Time
	}
	files := make([]qf, 0, len(ents))
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		info, ierr := e.Info()
		if ierr != nil {
			continue
		}
		files = append(files, qf{e.Name(), info.Size(), info.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	// Recompute from the scan: external deletions must not leave the
	// in-memory totals drifting upward forever.
	s.qObjects, s.qBytes = len(files), 0
	for _, f := range files {
		s.qBytes += f.size
	}
	for _, f := range files {
		if !over() {
			break
		}
		if os.Remove(filepath.Join(dir, f.name)) == nil {
			s.qObjects--
			s.qBytes -= f.size
			s.qEvictions++
		}
	}
}

// dropIndex removes key from the index, adjusting the byte total.
func (s *Store) dropIndex(key string) {
	s.mu.Lock()
	if m, ok := s.index[key]; ok {
		s.bytes -= m.size
		delete(s.index, key)
	}
	s.mu.Unlock()
}

// Contains reports residency without touching counters, access times
// or the payload.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// gcLocked evicts least-recently-accessed objects until the byte
// budget is respected. Caller holds s.mu.
func (s *Store) gcLocked() {
	if s.budget <= 0 {
		return
	}
	for s.bytes > s.budget && len(s.index) > 0 {
		oldestKey := ""
		var oldest time.Time
		for k, m := range s.index {
			if oldestKey == "" || m.atime.Before(oldest) {
				oldestKey, oldest = k, m.atime
			}
		}
		m := s.index[oldestKey]
		delete(s.index, oldestKey)
		s.bytes -= m.size
		s.evictions++
		os.Remove(s.objectPath(oldestKey))
	}
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses, Puts: s.puts,
		Evictions: s.evictions, Corrupt: s.corrupt, Rejected: s.rejected,
		PeerHits: s.peerHits, PeerMisses: s.peerMisses, PeerCorrupt: s.peerCorrupt,
		Entries: len(s.index), Bytes: s.bytes, BudgetBytes: s.budget,
		ScannedAtStartup:  s.scanned,
		QuarantineObjects: s.qObjects, QuarantineBytes: s.qBytes,
		QuarantineEvictions: s.qEvictions,
	}
}

// QuarantinedCount reports how many files sit in quarantine/ on disk
// (not just this process's corrupt counter) — restart-spanning
// observability.
func (s *Store) QuarantinedCount() int {
	ents, err := os.ReadDir(filepath.Join(s.dir, quarantineDir))
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() {
			n++
		}
	}
	return n
}
