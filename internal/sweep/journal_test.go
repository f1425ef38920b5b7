package sweep

import (
	"context"
	"os"
	"path/filepath"
	"repro/internal/canon"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cerr"
	"repro/internal/compiler"
	"repro/internal/jobs"
)

// journalHarness is the sweep harness with durability: a journal over
// a temp dir plus a shared map-backed "store" that survives manager
// "restarts" (the store is the disk tier's stand-in, and disk
// survives a crash).
type journalHarness struct {
	t       *testing.T
	dir     string
	mu      sync.Mutex
	store   map[string]*cache.Entry
	runs    atomic.Int64
	busted  atomic.Bool // when set, Run fails with a transient code
	queues  []*jobs.Queue
	mgr     *Manager
	journal *Journal
}

func newJournalHarness(t *testing.T) *journalHarness {
	h := &journalHarness{t: t, dir: t.TempDir(), store: map[string]*cache.Entry{}}
	h.boot()
	return h
}

// boot builds a fresh queue + manager over the same journal dir and
// store — a process restart in miniature.
func (h *journalHarness) boot() {
	j, err := OpenJournal(h.dir)
	if err != nil {
		h.t.Fatal(err)
	}
	h.journal = j
	q := jobs.New(jobs.Config{Workers: 2, Deadline: time.Minute})
	h.queues = append(h.queues, q)
	h.t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		q.Shutdown(ctx)
	})
	h.mgr = NewManager(Config{
		Queue:   q,
		Journal: j,
		Lookup: func(key string) (*cache.Entry, bool) {
			h.mu.Lock()
			defer h.mu.Unlock()
			e, ok := h.store[key]
			return e, ok
		},
		Run: func(ctx context.Context, key string, _ canon.Request, p compiler.Params) (*cache.Entry, error) {
			if h.busted.Load() {
				return nil, cerr.New(cerr.CodeOverloaded, "synthetic shed")
			}
			h.runs.Add(1)
			e := fakeEntry(key, p.Rows(), p.BPW*p.BPC, 1.05)
			h.mu.Lock()
			h.store[key] = e
			h.mu.Unlock()
			return e, nil
		},
	})
}

func (h *journalHarness) sweepFiles() []string {
	ents, err := os.ReadDir(h.dir)
	if err != nil {
		h.t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == journalExt {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestJournalCompletesCleanSweep(t *testing.T) {
	h := newJournalHarness(t)
	sw, err := h.mgr.Create(Spec{Base: baseReq(), Axes: Axes{Spares: []int{4, 8}}})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, sw)
	if files := h.sweepFiles(); len(files) != 0 {
		t.Fatalf("clean sweep left journal records %v", files)
	}
	if _, err := os.Stat(filepath.Join(h.dir, sw.ID+journalDoneExt)); !os.IsNotExist(err) {
		t.Fatalf("clean sweep left marker directory")
	}
}

func TestJournalRetainsTransientlyFailedSweep(t *testing.T) {
	h := newJournalHarness(t)
	h.busted.Store(true)
	sw, err := h.mgr.Create(Spec{Base: baseReq(), Axes: Axes{Spares: []int{4, 8}}})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, sw)
	if st := sw.Status(); st.Failed != st.Total {
		t.Fatalf("status %+v, want all points shed", st)
	}
	if files := h.sweepFiles(); len(files) != 1 {
		t.Fatalf("shed sweep journal records %v, want 1", files)
	}

	// "Restart": the shed cleared, Resume finishes the sweep.
	h.busted.Store(false)
	h.boot()
	n, err := h.mgr.Resume()
	if err != nil || n != 1 {
		t.Fatalf("Resume = %d, %v", n, err)
	}
	sw2, ok := h.mgr.Get(sw.ID)
	if !ok {
		t.Fatalf("resumed sweep lost its ID %s", sw.ID)
	}
	wait(t, sw2)
	if st := sw2.Status(); st.Done != st.Total {
		t.Fatalf("resumed status %+v", st)
	}
	if files := h.sweepFiles(); len(files) != 0 {
		t.Fatalf("finished resume left journal records %v", files)
	}
}

func TestJournalResumeReplaysDoneGroupsWithoutRecompiles(t *testing.T) {
	h := newJournalHarness(t)
	spec := Spec{Base: baseReq(), Axes: Axes{Spares: []int{4, 8, 16}, Defects: []float64{0, 5}}}
	sw, err := h.mgr.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, sw)
	want := sw.Results()
	runsBefore := h.runs.Load()

	// Simulate a crash after completion but before Complete(): rewrite
	// the journal record as an interrupted sweep with every group
	// already marked done.
	if err := h.journal.Begin(sw.ID, spec); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	for key := range h.store {
		h.mu.Unlock()
		if err := h.journal.MarkDone(sw.ID, key); err != nil {
			t.Fatal(err)
		}
		h.mu.Lock()
	}
	h.mu.Unlock()

	h.boot()
	if n, err := h.mgr.Resume(); err != nil || n != 1 {
		t.Fatalf("Resume = %d, %v", n, err)
	}
	sw2, _ := h.mgr.Get(sw.ID)
	wait(t, sw2)
	if h.runs.Load() != runsBefore {
		t.Fatalf("resume recompiled journaled points: %d -> %d runs", runsBefore, h.runs.Load())
	}
	got := sw2.Results()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("resumed rows %d, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		g, w := got.Rows[i], want.Rows[i]
		// Cached differs by construction (resume serves from the store);
		// every measured column must be identical.
		g.Cached, w.Cached = false, false
		if g != w {
			t.Fatalf("row %d drifted across resume:\n got %+v\nwant %+v", i, g, w)
		}
	}
	if n, err := h.mgr.Resume(); err != nil || n != 0 {
		t.Fatalf("second Resume = %d, %v (sweep already live)", n, err)
	}
}

func TestJournalFreshIDsSkipResumedOnes(t *testing.T) {
	h := newJournalHarness(t)
	h.busted.Store(true)
	sw, err := h.mgr.Create(Spec{Base: baseReq()})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, sw)
	h.busted.Store(false)
	h.boot()
	if _, err := h.mgr.Resume(); err != nil {
		t.Fatal(err)
	}
	fresh, err := h.mgr.Create(Spec{Base: baseReq(), Axes: Axes{Spares: []int{8}}})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == sw.ID {
		t.Fatalf("fresh sweep collided with resumed ID %s", sw.ID)
	}
	wait(t, fresh)
	// The resumed sweep journals in the background too; let it finish
	// before the temp dir is removed.
	resumed, ok := h.mgr.Get(sw.ID)
	if !ok {
		t.Fatalf("resumed sweep %s not live", sw.ID)
	}
	wait(t, resumed)
}

func TestJournalValidation(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "sweep-", "../evil", "sweep-12x", "job-000001"} {
		if err := j.Begin(id, Spec{}); err == nil {
			t.Errorf("Begin(%q) accepted", id)
		}
	}
	if err := j.MarkDone("sweep-000001", "../../etc/passwd"); err == nil {
		t.Error("path-shaped marker key accepted")
	}
	// Marking against an unjournaled sweep is a silent no-op (the
	// Complete race), never a resurrection.
	if err := j.MarkDone("sweep-000099", validTestKey()); err != nil {
		t.Errorf("late marker errored: %v", err)
	}
	if _, serr := os.Stat(filepath.Join(j.Dir(), "sweep-000099"+journalDoneExt)); !os.IsNotExist(serr) {
		t.Error("late marker resurrected a completed sweep's directory")
	}
	var nilJ *Journal
	if err := nilJ.Begin("sweep-000001", Spec{}); err != nil {
		t.Errorf("nil journal Begin: %v", err)
	}
	if recs, err := nilJ.Pending(); err != nil || recs != nil {
		t.Errorf("nil journal Pending: %v %v", recs, err)
	}
}

// TestTransientFailureClassification pins the drain/overload edge: a
// SIGTERM drain fails queued sweep points with ERR_BUDGET_EXCEEDED and
// load shedding with ERR_OVERLOADED — both must keep the journal
// record so a restart resumes the sweep, while deterministic input
// failures must complete it (re-running them cannot help).
func TestTransientFailureClassification(t *testing.T) {
	if !transientFailure(cerr.New(cerr.CodeOverloaded, "queue full")) {
		t.Error("ERR_OVERLOADED not transient")
	}
	if !transientFailure(cerr.New(cerr.CodeBudgetExceeded, "drain killed queued job")) {
		t.Error("ERR_BUDGET_EXCEEDED not transient")
	}
	if transientFailure(cerr.New(cerr.CodeInvalidParams, "rows out of range")) {
		t.Error("deterministic failure classified transient")
	}
	if transientFailure(nil) {
		t.Error("nil error classified transient")
	}
}

func validTestKey() string {
	b := make([]byte, 64)
	for i := range b {
		b[i] = 'a'
	}
	return string(b)
}
