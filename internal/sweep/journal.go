// Sweep durability: a write-ahead journal that lets a restarted
// daemon resume in-flight sweeps instead of losing them.
//
// Layout (every file is written by store.WriteAtomic, the store's own
// temp+rename write):
//
//	<dir>/tmp/                  scratch for atomic writes (swept on open)
//	<dir>/<id>.sweep            JSON record: {id, created_at, spec}
//	<dir>/<id>.done/<key>       empty marker: group <key> completed and
//	                            its entry is durably in the artifact store
//
// The record is written before any group launches (write-ahead), a
// done marker is written only after the group's entry landed in the
// store, and Complete removes everything once the sweep finishes
// cleanly. Resume therefore re-expands the journaled spec and replays
// finished groups through the content-addressed store lookup — zero
// recompiles of journaled points, byte-identical rows (the compiler is
// deterministic for a fixed spec).
package sweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cerr"
	"repro/internal/store"
)

const (
	journalExt     = ".sweep"
	journalDoneExt = ".done"
	journalTmpDir  = "tmp"
)

// Journal persists sweep progress. A nil *Journal disables durability:
// every method is a no-op. Construct with OpenJournal; safe for
// concurrent use.
type Journal struct {
	dir string
	mu  sync.Mutex
}

// JournalRecord is one persisted in-flight sweep.
type JournalRecord struct {
	ID        string `json:"id"`
	CreatedAt string `json:"created_at"`
	Spec      Spec   `json:"spec"`
	// Done holds the content keys of completed groups (loaded from the
	// marker directory, not part of the record file).
	Done map[string]bool `json:"-"`
}

// OpenJournal creates the journal directory layout and clears
// abandoned temp files from a previous crash.
func OpenJournal(dir string) (*Journal, error) {
	if dir == "" {
		return nil, cerr.New(cerr.CodeInvalidParams, "sweep: empty journal directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, journalTmpDir), 0o755); err != nil {
		return nil, cerr.Wrap(cerr.CodeInternal, err, "sweep: creating journal %s", dir)
	}
	store.ClearTemp(filepath.Join(dir, journalTmpDir))
	return &Journal{dir: dir}, nil
}

// Dir returns the journal root ("" for a nil journal).
func (j *Journal) Dir() string {
	if j == nil {
		return ""
	}
	return j.dir
}

// Begin writes the sweep record (write-ahead: call before launching
// any group) and creates its marker directory. Idempotent — resuming
// rewrites the same record.
func (j *Journal) Begin(id string, spec Spec) error {
	if j == nil {
		return nil
	}
	if !validSweepID(id) {
		return cerr.New(cerr.CodeInvalidParams, "sweep: journal rejects id %q", id)
	}
	rec := JournalRecord{ID: id, CreatedAt: time.Now().UTC().Format(time.RFC3339Nano), Spec: spec}
	data, err := json.Marshal(rec)
	if err != nil {
		return cerr.Wrap(cerr.CodeInternal, err, "sweep: encoding journal record %s", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := os.MkdirAll(filepath.Join(j.dir, id+journalDoneExt), 0o755); err != nil {
		return cerr.Wrap(cerr.CodeInternal, err, "sweep: journal markers for %s", id)
	}
	if err := store.WriteAtomic(j.tmpDir(), filepath.Join(j.dir, id+journalExt), data); err != nil {
		return cerr.Wrap(cerr.CodeInternal, err, "sweep: journal record %s", id)
	}
	return nil
}

// MarkDone records that the group keyed key completed and its entry is
// durably in the artifact store. Call only after the store put.
func (j *Journal) MarkDone(id, key string) error {
	if j == nil {
		return nil
	}
	if !validSweepID(id) || !store.ValidKey(key) {
		return cerr.New(cerr.CodeInvalidParams, "sweep: journal rejects marker %q/%q", id, key)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	dir := filepath.Join(j.dir, id+journalDoneExt)
	if _, err := os.Stat(filepath.Join(j.dir, id+journalExt)); err != nil {
		// The sweep already completed (or was never journaled): a late
		// marker must not resurrect a directory Complete removed.
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return cerr.Wrap(cerr.CodeInternal, err, "sweep: journal markers for %s", id)
	}
	if err := store.WriteAtomic(j.tmpDir(), filepath.Join(dir, key)); err != nil {
		return cerr.Wrap(cerr.CodeInternal, err, "sweep: journal marker %s/%s", id, key)
	}
	return nil
}

// Complete removes the sweep's record and markers: the sweep finished
// and needs no resume.
func (j *Journal) Complete(id string) error {
	if j == nil {
		return nil
	}
	if !validSweepID(id) {
		return cerr.New(cerr.CodeInvalidParams, "sweep: journal rejects id %q", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	// Record first: once it is gone the sweep can never resume, so a
	// crash between the two removals leaves only an orphaned marker
	// directory, which Pending ignores and a later Begin reuses.
	if err := os.Remove(filepath.Join(j.dir, id+journalExt)); err != nil && !os.IsNotExist(err) {
		return cerr.Wrap(cerr.CodeInternal, err, "sweep: completing journal %s", id)
	}
	os.RemoveAll(filepath.Join(j.dir, id+journalDoneExt))
	return nil
}

// Pending returns every journaled sweep that never completed, sorted
// by ID (creation order), each with its done-marker key set.
func (j *Journal) Pending() ([]JournalRecord, error) {
	if j == nil {
		return nil, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	ents, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, cerr.Wrap(cerr.CodeInternal, err, "sweep: scanning journal")
	}
	var out []JournalRecord
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, journalExt) {
			continue
		}
		data, rerr := os.ReadFile(filepath.Join(j.dir, name))
		if rerr != nil {
			continue
		}
		var rec JournalRecord
		if json.Unmarshal(data, &rec) != nil || rec.ID != strings.TrimSuffix(name, journalExt) {
			// A corrupt or mislabeled record cannot be resumed; leave it
			// on disk for forensics, skip it for resume.
			continue
		}
		rec.Done = map[string]bool{}
		if marks, merr := os.ReadDir(filepath.Join(j.dir, rec.ID+journalDoneExt)); merr == nil {
			for _, mk := range marks {
				if !mk.IsDir() {
					rec.Done[mk.Name()] = true
				}
			}
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out, nil
}

// tmpDir is the journal's store.WriteAtomic scratch directory.
func (j *Journal) tmpDir() string { return filepath.Join(j.dir, journalTmpDir) }

// validSweepID accepts the manager's "sweep-NNNNNN" IDs (and nothing
// path-shaped).
func validSweepID(id string) bool {
	if !strings.HasPrefix(id, "sweep-") || len(id) > 64 {
		return false
	}
	for i := len("sweep-"); i < len(id); i++ {
		if id[i] < '0' || id[i] > '9' {
			return false
		}
	}
	return len(id) > len("sweep-")
}
