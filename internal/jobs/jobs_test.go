package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"strings"

	"repro/internal/cerr"
	"repro/internal/obs"
)

func TestRunsAndReturnsValue(t *testing.T) {
	q := New(Config{Workers: 2})
	defer q.Shutdown(context.Background())
	j, deduped, err := q.Submit("k1", Interactive, func(ctx context.Context) (any, error) {
		return 42, nil
	})
	if err != nil || deduped {
		t.Fatalf("submit: err=%v deduped=%v", err, deduped)
	}
	v, err := j.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 42 {
		t.Fatalf("value %v", v)
	}
	if j.State() != StateDone {
		t.Fatalf("state %v", j.State())
	}
}

func TestErrorPropagates(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Shutdown(context.Background())
	boom := errors.New("boom")
	j, _, err := q.Submit("k", Interactive, func(ctx context.Context) (any, error) {
		return nil, boom
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Result(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	if j.State() != StateFailed {
		t.Fatalf("state %v", j.State())
	}
}

func TestPanicBecomesTypedError(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Shutdown(context.Background())
	j, _, err := q.Submit("k", Interactive, func(ctx context.Context) (any, error) {
		panic("invariant violated")
	})
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := j.Result(context.Background())
	if cerr.CodeOf(rerr) != cerr.CodeInternal {
		t.Fatalf("want ERR_INTERNAL, got %v", rerr)
	}
}

func TestSingleflightDedup(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Shutdown(context.Background())
	var runs atomic.Int32
	release := make(chan struct{})
	// Occupy the single worker so the key stays in-flight.
	blocker, _, err := q.Submit("blocker", Interactive, func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fn := func(ctx context.Context) (any, error) {
		runs.Add(1)
		return "r", nil
	}
	first, deduped, err := q.Submit("same", Interactive, fn)
	if err != nil || deduped {
		t.Fatalf("first: %v %v", err, deduped)
	}
	var jobs []*Job
	for i := 0; i < 5; i++ {
		j, dup, err := q.Submit("same", Interactive, fn)
		if err != nil {
			t.Fatal(err)
		}
		if !dup {
			t.Fatalf("submission %d was not deduped", i)
		}
		if j != first {
			t.Fatalf("submission %d got a different job", i)
		}
		jobs = append(jobs, j)
	}
	close(release)
	for _, j := range append(jobs, first, blocker) {
		if _, err := j.Result(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	if first.Attached() != 6 {
		t.Fatalf("attached %d, want 6", first.Attached())
	}
	s := q.Stats()
	if s.Deduped != 5 || s.Submitted != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestPriorityOrdering(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Shutdown(context.Background())
	release := make(chan struct{})
	blocker, _, err := q.Submit("blocker", Interactive, func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []string
	mk := func(name string) Func {
		return func(ctx context.Context) (any, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil, nil
		}
	}
	// Enqueue in deliberately mixed order while the worker is blocked.
	var jobs []*Job
	for _, sub := range []struct {
		name string
		pri  Priority
	}{
		{"batch1", Batch}, {"norm1", Normal}, {"int1", Interactive},
		{"batch2", Batch}, {"int2", Interactive}, {"norm2", Normal},
	} {
		j, _, err := q.Submit(sub.name, sub.pri, mk(sub.name))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	close(release)
	blocker.Result(context.Background())
	for _, j := range jobs {
		if _, err := j.Result(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"int1", "int2", "norm1", "norm2", "batch1", "batch2"}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

func TestPerJobDeadline(t *testing.T) {
	q := New(Config{Workers: 1, Deadline: 30 * time.Millisecond})
	defer q.Shutdown(context.Background())
	j, _, err := q.Submit("slow", Interactive, func(ctx context.Context) (any, error) {
		select {
		case <-ctx.Done():
			return nil, cerr.Wrap(cerr.CodeBudgetExceeded, ctx.Err(), "kernel stopped")
		case <-time.After(5 * time.Second):
			return nil, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, rerr := j.Result(context.Background())
	if cerr.CodeOf(rerr) != cerr.CodeBudgetExceeded {
		t.Fatalf("want ERR_BUDGET_EXCEEDED, got %v", rerr)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("deadline did not bound the job")
	}
}

func TestCapacityRejects(t *testing.T) {
	q := New(Config{Workers: 1, Capacity: 2})
	defer q.Shutdown(context.Background())
	release := make(chan struct{})
	q.Submit("blocker", Interactive, func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	})
	// Give the worker a moment to pick up the blocker so the queued
	// count is deterministic.
	deadline := time.Now().Add(2 * time.Second)
	for q.Stats().Running == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ok1, _, err1 := q.Submit("a", Interactive, func(ctx context.Context) (any, error) { return nil, nil })
	ok2, _, err2 := q.Submit("b", Interactive, func(ctx context.Context) (any, error) { return nil, nil })
	if err1 != nil || err2 != nil {
		t.Fatalf("fills rejected: %v %v", err1, err2)
	}
	_, _, err3 := q.Submit("c", Interactive, func(ctx context.Context) (any, error) { return nil, nil })
	if cerr.CodeOf(err3) != cerr.CodeOverloaded {
		t.Fatalf("overflow not rejected with ERR_OVERLOADED: %v", err3)
	}
	close(release)
	ok1.Result(context.Background())
	ok2.Result(context.Background())
	if s := q.Stats(); s.Rejected != 1 {
		t.Fatalf("rejected %d", s.Rejected)
	}
}

func TestGracefulDrainFinishesQueuedWork(t *testing.T) {
	q := New(Config{Workers: 2})
	var ran atomic.Int32
	var jobs []*Job
	for i := 0; i < 10; i++ {
		j, _, err := q.Submit(fmt.Sprintf("k%d", i), Batch, func(ctx context.Context) (any, error) {
			time.Sleep(2 * time.Millisecond)
			ran.Add(1)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := q.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 10 {
		t.Fatalf("drain completed %d/10 jobs", n)
	}
	for _, j := range jobs {
		if j.State() != StateDone {
			t.Fatalf("job %s state %v after drain", j.ID, j.State())
		}
	}
	// Post-drain submissions are rejected.
	if _, _, err := q.Submit("late", Interactive, func(ctx context.Context) (any, error) { return nil, nil }); err == nil {
		t.Fatal("draining queue must reject")
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	q := New(Config{Workers: 1})
	j, _, err := q.Submit("straggler", Interactive, func(ctx context.Context) (any, error) {
		<-ctx.Done() // only exits when the drain hard-cancels
		return nil, cerr.Wrap(cerr.CodeBudgetExceeded, ctx.Err(), "cancelled")
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := q.Shutdown(ctx); err == nil {
		t.Fatal("shutdown should report the forced cancellation")
	}
	if _, rerr, ok := j.Peek(); !ok || rerr == nil {
		t.Fatalf("straggler should have failed: ok=%v err=%v", ok, rerr)
	}
}

func TestAbandonedWaitDoesNotCancelJob(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Shutdown(context.Background())
	release := make(chan struct{})
	j, _, err := q.Submit("k", Interactive, func(ctx context.Context) (any, error) {
		<-release
		return "late value", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, werr := j.Result(ctx); cerr.CodeOf(werr) != cerr.CodeBudgetExceeded {
		t.Fatalf("abandoned wait: %v", werr)
	}
	close(release)
	v, err := j.Result(context.Background())
	if err != nil || v.(string) != "late value" {
		t.Fatalf("job lost after abandoned wait: %v %v", v, err)
	}
}

func TestConcurrentSubmitStress(t *testing.T) {
	q := New(Config{Workers: 4, Deadline: time.Second})
	var wg sync.WaitGroup
	var ran atomic.Int32
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", (g+i)%20)
				j, _, err := q.Submit(key, Priority(i%3), func(ctx context.Context) (any, error) {
					ran.Add(1)
					return key, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := j.Result(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := q.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := q.Stats()
	if s.Submitted+s.Deduped != 400 {
		t.Fatalf("accounting: %+v", s)
	}
	if s.Completed != s.Submitted {
		t.Fatalf("completed %d != submitted %d", s.Completed, s.Submitted)
	}
}

// TestTracePropagation: a traced submission records the queue.wait
// span and hands fn a context carrying the trace, so pipeline spans
// land in the same collection.
func TestTracePropagation(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Shutdown(context.Background())
	tr := obs.NewTrace("job-trace")
	j, deduped, err := q.SubmitTraced("k", Interactive, tr, func(ctx context.Context) (any, error) {
		if obs.FromContext(ctx) != tr {
			t.Error("fn context does not carry the submitted trace")
		}
		_, end := obs.Start(ctx, "work")
		end()
		return nil, nil
	})
	if err != nil || deduped {
		t.Fatal(err, deduped)
	}
	if j.Trace() != tr {
		t.Fatal("job lost its trace")
	}
	if _, err := j.Result(context.Background()); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range tr.Spans() {
		names[s.Name] = true
	}
	if !names["queue.wait"] || !names["work"] {
		t.Fatalf("trace missing spans: %v", names)
	}
}

// TestCancelledJobAccountsQueueWait is the drain-path accounting
// contract: a job failed fast during a hard drain (never executed)
// still contributes its queue wait to the histogram, the cumulative
// counter and its trace — abandoned jobs are never zero-cost.
func TestCancelledJobAccountsQueueWait(t *testing.T) {
	reg := obs.NewRegistry()
	q := New(Config{Workers: 1, Registry: reg})
	block := make(chan struct{})
	// Occupy the single worker so the second job stays queued.
	blocker, _, err := q.Submit("blocker", Interactive, func(ctx context.Context) (any, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("victim")
	victim, _, err := q.SubmitTraced("victim", Interactive, tr, func(ctx context.Context) (any, error) {
		t.Error("cancelled job's fn must not run")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the victim accrue queue wait

	// Expire the drain budget immediately: the blocker is hard-cancelled
	// and the victim is failed fast off the queue.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := q.Shutdown(ctx); err == nil {
		t.Fatal("shutdown should report the forced cancellation")
	}
	close(block)

	if _, verr, ok := victim.Peek(); !ok || cerr.CodeOf(verr) != cerr.CodeBudgetExceeded {
		t.Fatalf("victim outcome: ok=%v err=%v", ok, verr)
	}
	_ = blocker
	s := q.Stats()
	if s.Cancelled < 1 {
		t.Fatalf("cancelled = %d, want >= 1", s.Cancelled)
	}
	if s.QueueWaitMsTotal < 20 {
		t.Fatalf("queue wait total %.3f ms: cancelled job's wait not accounted", s.QueueWaitMsTotal)
	}
	submitted, started, finished := victim.Times()
	if !started.IsZero() {
		t.Fatal("cancelled job must never have started")
	}
	if finished.Before(submitted) || finished.IsZero() {
		t.Fatalf("cancelled job times: submitted=%v finished=%v", submitted, finished)
	}
	// The trace carries the cancelled queue.wait span.
	var waitSpan bool
	for _, sp := range tr.Spans() {
		if sp.Name == "queue.wait" {
			waitSpan = true
			var cancelledAttr bool
			for _, a := range sp.Attrs {
				if a.Key == "cancelled" && a.Value == "true" {
					cancelledAttr = true
				}
			}
			if !cancelledAttr {
				t.Fatalf("queue.wait span missing cancelled attr: %v", sp.Attrs)
			}
			if sp.Dur < 20*time.Millisecond {
				t.Fatalf("queue.wait span too short: %v", sp.Dur)
			}
		}
	}
	if !waitSpan {
		t.Fatal("cancelled job recorded no queue.wait span")
	}
	// And the registry histogram saw both jobs' waits.
	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo.String(), "jobs_queue_wait_seconds_count 2") {
		t.Fatalf("queue wait histogram count wrong:\n%s", expo.String())
	}
}

// TestDefaultWorkersUsesAllCPUs pins the Config.Workers default:
// leaving the pool size unset (or negative) sizes it to
// runtime.GOMAXPROCS(0), not to a single worker.
func TestDefaultWorkersUsesAllCPUs(t *testing.T) {
	q := New(Config{})
	defer q.Shutdown(context.Background())
	if got, want := q.Stats().Workers, runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default workers = %d, want GOMAXPROCS = %d", got, want)
	}
	q2 := New(Config{Workers: -3})
	defer q2.Shutdown(context.Background())
	if got, want := q2.Stats().Workers, runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("negative workers = %d, want GOMAXPROCS = %d", got, want)
	}
}

// TestDoneImpliesCounted: a job's Done channel closes only after the
// queue's counters include it, so a caller that saw the job finish
// (an HTTP client that got its response, a sweep that completed)
// never reads jobs_completed_total without it.
func TestDoneImpliesCounted(t *testing.T) {
	q := New(Config{Workers: 2})
	defer q.Shutdown(context.Background())
	for i := 1; i <= 2000; i++ {
		j, _, err := q.Submit(fmt.Sprint(i), Interactive, func(ctx context.Context) (any, error) {
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if st := q.Stats(); st.Completed != uint64(i) || st.Running != 0 {
			t.Fatalf("job %d done, but stats say completed=%d running=%d", i, st.Completed, st.Running)
		}
	}
}
