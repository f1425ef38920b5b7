// Sweep durability: a write-ahead journal that lets a restarted
// daemon resume in-flight sweeps instead of losing them.
//
// Layout (the record is written by store.WriteAtomic, the store's own
// temp+rename write):
//
//	<dir>/tmp/                  scratch for atomic writes (swept on open)
//	<dir>/<id>.sweep            JSON record: {id, created_at, spec}
//
// The record is written before any group launches (write-ahead), and
// Complete removes it once the sweep finishes cleanly. Resume
// therefore re-expands the journaled spec and replays every group
// whose entry reached the store through the content-addressed lookup
// — no recompiles of those points, byte-identical rows (the compiler
// is deterministic for a fixed spec).
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
	journalExt    = ".sweep"
	journalTmpDir = "tmp"
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
// any group). Idempotent — resuming rewrites the same record.
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
	if err := store.WriteAtomic(j.tmpDir(), filepath.Join(j.dir, id+journalExt), data); err != nil {
		return cerr.Wrap(cerr.CodeInternal, err, "sweep: journal record %s", id)
	}
	return nil
}

// Complete removes the sweep's record: the sweep finished and needs no
// resume.
func (j *Journal) Complete(id string) error {
	if j == nil {
		return nil
	}
	if !validSweepID(id) {
		return cerr.New(cerr.CodeInvalidParams, "sweep: journal rejects id %q", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := os.Remove(filepath.Join(j.dir, id+journalExt)); err != nil && !os.IsNotExist(err) {
		return cerr.Wrap(cerr.CodeInternal, err, "sweep: completing journal %s", id)
	}
	return nil
}

// Pending returns every journaled sweep that never completed, sorted
// by ID (creation order).
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
