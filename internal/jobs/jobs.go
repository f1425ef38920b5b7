// Package jobs runs compile requests on a bounded worker pool with
// priorities, per-job deadlines, in-flight deduplication and graceful
// drain — the execution substrate of the bisramgend service.
//
//   - Priorities: interactive submissions outrank batch sweeps; within
//     a priority the queue is FIFO (a sequence number breaks ties, so
//     starvation within a class is impossible).
//   - Deadlines: every job runs under context.WithTimeout wired into
//     the compile pipeline's context-bounded kernels, so a pathological
//     request costs at most the configured deadline, never a worker.
//   - Dedup (singleflight): a submission whose key matches a queued or
//     running job attaches to that job instead of enqueueing a copy —
//     N identical concurrent requests cost one compile.
//   - Drain: Shutdown stops intake, lets queued+running jobs finish
//     (until the drain context expires, at which point the base context
//     is cancelled and the deadline kernels unwind), then joins every
//     worker. No goroutine outlives Shutdown.
//   - Registry: the queue is the process's one record of its jobs. Job
//     IDs are random ("job-" plus 16 hex digits), so they are unique
//     across a fleet, and Job answers for every queued or running job
//     and the newest KeepFinished finished ones.
package jobs

import (
	"container/heap"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cerr"
	"repro/internal/chaos"
	"repro/internal/obs"
)

// Priority orders jobs; lower values run first.
type Priority int

// Priority classes.
const (
	// Interactive is for latency-sensitive submissions (the default
	// for HTTP compile requests).
	Interactive Priority = iota
	// Normal is the middle class.
	Normal
	// Batch is for sweeps and campaigns that should yield to
	// interactive traffic.
	Batch
)

// String names the priority class.
func (p Priority) String() string {
	switch p {
	case Interactive:
		return "interactive"
	case Normal:
		return "normal"
	case Batch:
		return "batch"
	}
	return fmt.Sprintf("priority%d", int(p))
}

// ParsePriority maps a wire name to a class; empty means Interactive.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "interactive":
		return Interactive, nil
	case "normal":
		return Normal, nil
	case "batch":
		return Batch, nil
	}
	return 0, cerr.New(cerr.CodeInvalidParams, "jobs: unknown priority %q (interactive, normal, batch)", s)
}

// State is a job's lifecycle position.
type State int32

// Job states.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("state%d", int32(s))
}

// Func is the unit of work: it must honour ctx and return its result.
type Func func(ctx context.Context) (any, error)

// Job is one tracked unit of work. Fields set at submission are
// immutable; mutable state is accessed through the methods.
type Job struct {
	ID       string
	Key      string
	Priority Priority

	fn    Func
	seq   uint64
	done  chan struct{}
	trace *obs.Trace

	attached  atomic.Int64 // dedup attach count (first submitter included)
	mu        sync.Mutex   // guards result fields and times
	value     any
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Trace returns the job's trace. Deduped submissions share the first
// submitter's trace.
func (j *Job) Trace() *obs.Trace { return j.trace }

// State returns the current lifecycle state, derived from the job's
// outcome and start time: a job reports done or failed only once Result
// and Peek can return its outcome and the queue has counted it.
func (j *Job) State() State {
	if _, err, ok := j.Peek(); ok {
		if err != nil {
			return StateFailed
		}
		return StateDone
	}
	if _, started, _ := j.Times(); !started.IsZero() {
		return StateRunning
	}
	return StateQueued
}

// Attached returns how many submissions share this job (1 = no dedup).
func (j *Job) Attached() int64 { return j.attached.Load() }

// Result returns the outcome. It blocks until the job is terminal or
// ctx expires (in which case the job keeps running and ctx.Err is
// returned — abandoning a wait never cancels work other submitters
// may be attached to).
func (j *Job) Result(ctx context.Context) (any, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, cerr.Wrap(cerr.CodeBudgetExceeded, ctx.Err(), "jobs: wait for %s abandoned", j.ID)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.value, j.err
}

// Peek returns the outcome without blocking; ok is false while the
// job is still queued or running.
func (j *Job) Peek() (value any, err error, ok bool) {
	select {
	case <-j.done:
	default:
		return nil, nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.value, j.err, true
}

// Times returns the submission, start and finish timestamps (zero
// until reached).
func (j *Job) Times() (submitted, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.submitted, j.started, j.finished
}

// Config sizes a queue.
type Config struct {
	// Workers is the pool size; <= 0 selects runtime.GOMAXPROCS(0) —
	// one worker per schedulable CPU — so an unconfigured queue
	// saturates the machine instead of silently serializing behind a
	// single worker. Set Workers: 1 explicitly to force serial
	// execution (tests that need deterministic pickup order do).
	Workers int
	// Capacity bounds the queued (not yet running) job count; <= 0
	// means unbounded. A full queue rejects instead of blocking, so
	// overload back-pressures to the client immediately.
	Capacity int
	// Deadline bounds each job's run; <= 0 means no per-job deadline.
	Deadline time.Duration
	// Registry, when non-nil, receives the queue's telemetry: the
	// jobs_queue_wait_seconds histogram (observed for every job,
	// including jobs cancelled before execution during a hard drain),
	// queue-depth/running gauges, and lifecycle counters.
	Registry *obs.Registry
	// Chaos, when non-nil, injects scripted faults at the queue.stall
	// point (a delay rule stalls a worker's job pickup, simulating a
	// wedged worker).
	Chaos *chaos.Injector
}

// Stats is a point-in-time snapshot of queue counters.
type Stats struct {
	Workers   int    `json:"workers"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Submitted uint64 `json:"submitted"`
	Deduped   uint64 `json:"deduped"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Rejected  uint64 `json:"rejected"`
	// Cancelled counts jobs failed on the drain path before their
	// function ever ran (hard drain). Their queue-wait time is still
	// accounted in QueueWaitMsTotal and the queue-wait histogram, so
	// abandoned jobs never appear as zero-cost.
	Cancelled uint64 `json:"cancelled"`
	// QueueWaitMsTotal is the cumulative submit→pickup wait across
	// every job, including cancelled ones.
	QueueWaitMsTotal float64       `json:"queue_wait_ms_total"`
	Draining         bool          `json:"draining"`
	Deadline         time.Duration `json:"-"`
}

// KeepFinished bounds how many finished jobs a queue still answers
// for (oldest evicted first); queued and running jobs are never
// evicted.
const KeepFinished = 512

// Queue is the worker pool. Construct with New.
type Queue struct {
	cfg       Config
	baseCtx   context.Context
	cancel    context.CancelFunc
	mu        sync.Mutex
	cond      *sync.Cond
	heap      jobHeap
	inflight  map[string]*Job // queued or running, by key (dedup)
	running   int
	draining  bool
	hardDrain bool // drain budget expired: fail queued jobs without running them
	seq       uint64
	wg        sync.WaitGroup

	// byID holds every queued or running job and the newest
	// KeepFinished finished ones; finished is the ring of finished IDs,
	// nFinished counting every job ever written to it.
	byID      map[string]*Job
	finished  [KeepFinished]string
	nFinished int

	queueWait *obs.Histogram // nil when no registry is configured
	waitNanos atomic.Int64   // cumulative queue wait, all jobs incl. cancelled

	submitted, deduped, completed, failed, rejected, cancelledJobs uint64
}

// New starts a queue with cfg.Workers workers (defaulting to one per
// schedulable CPU; see Config.Workers).
func New(cfg Config) *Queue {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		cfg:      cfg,
		baseCtx:  ctx,
		cancel:   cancel,
		inflight: map[string]*Job{},
		byID:     map[string]*Job{},
	}
	q.cond = sync.NewCond(&q.mu)
	// All Registry methods are nil-receiver safe, so the instruments
	// degrade to no-ops when telemetry is disabled.
	r := cfg.Registry
	q.queueWait = r.Histogram("jobs_queue_wait_seconds",
		"Time jobs spend queued before a worker picks them up (or before drain cancellation).", nil)
	r.GaugeFunc("jobs_queue_depth", "Jobs queued and not yet running.",
		func() float64 { return float64(q.Stats().Queued) })
	r.GaugeFunc("jobs_running", "Jobs currently executing on workers.",
		func() float64 { return float64(q.Stats().Running) })
	r.CounterFunc("jobs_submitted_total", "Jobs accepted into the queue.",
		func() float64 { return float64(q.Stats().Submitted) })
	r.CounterFunc("jobs_deduped_total", "Submissions that attached to an identical in-flight job.",
		func() float64 { return float64(q.Stats().Deduped) })
	r.CounterFunc("jobs_completed_total", "Jobs that finished successfully.",
		func() float64 { return float64(q.Stats().Completed) })
	r.CounterFunc("jobs_failed_total", "Jobs that finished with an error (cancelled jobs included).",
		func() float64 { return float64(q.Stats().Failed) })
	r.CounterFunc("jobs_rejected_total", "Submissions rejected by a full or draining queue.",
		func() float64 { return float64(q.Stats().Rejected) })
	r.CounterFunc("jobs_cancelled_total", "Jobs failed on the drain path before execution.",
		func() float64 { return float64(q.Stats().Cancelled) })
	for i := 0; i < cfg.Workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Submit enqueues fn under key. If a job with the same key is already
// queued or running, the submission attaches to it (deduped=true) and
// fn and tr are discarded: the job keeps the first submitter's trace.
// A draining queue or a full queue rejects with ERR_OVERLOADED — a
// transient, retryable shed, distinct from the ERR_BUDGET_EXCEEDED a
// job earns by exhausting its own deadline.
//
// Every job has a trace: tr, or a fresh one when tr is nil. The queue
// records a "queue.wait" span covering submission → worker pickup (or
// drain cancellation), and fn runs under a context carrying the trace
// so the pipeline's stage spans land in it.
func (q *Queue) Submit(key string, pri Priority, tr *obs.Trace, fn Func) (job *Job, deduped bool, err error) {
	if tr == nil {
		tr = obs.NewTrace("")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		q.rejected++
		return nil, false, cerr.New(cerr.CodeOverloaded, "jobs: queue is draining")
	}
	if j, ok := q.inflight[key]; ok {
		j.attached.Add(1)
		q.deduped++
		return j, true, nil
	}
	if q.cfg.Capacity > 0 && q.heap.Len() >= q.cfg.Capacity {
		q.rejected++
		return nil, false, cerr.New(cerr.CodeOverloaded,
			"jobs: queue full (%d queued)", q.heap.Len())
	}
	q.seq++
	j := &Job{
		ID:       "job-" + obs.NewID(),
		Key:      key,
		Priority: pri,
		fn:       fn,
		seq:      q.seq,
		done:     make(chan struct{}),
		trace:    tr,
	}
	j.attached.Store(1)
	j.mu.Lock()
	j.submitted = time.Now()
	j.mu.Unlock()
	q.inflight[key] = j
	q.byID[j.ID] = j
	heap.Push(&q.heap, j)
	q.submitted++
	q.cond.Signal()
	return j, false, nil
}

// worker pops and runs jobs until the queue drains and closes.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for q.heap.Len() == 0 && !q.draining {
			q.cond.Wait()
		}
		if q.heap.Len() == 0 && q.draining {
			q.mu.Unlock()
			return
		}
		j := heap.Pop(&q.heap).(*Job)
		q.running++
		fastFail := q.hardDrain
		q.mu.Unlock()

		var err error
		if fastFail {
			// The drain budget expired: the base context is dead, so
			// running fn would only burn time unwinding. Fail the job
			// immediately — but still account its queue wait, so
			// abandoned jobs never appear as zero-cost in the counters.
			err = q.failFast(j)
		} else {
			err = q.run(j)
		}

		q.mu.Lock()
		q.running--
		delete(q.inflight, j.Key)
		slot := &q.finished[q.nFinished%KeepFinished]
		delete(q.byID, *slot) // the oldest finished job, once the ring is full
		*slot = j.ID
		q.nFinished++
		if err == nil {
			q.completed++
		} else {
			q.failed++
		}
		if fastFail {
			q.cancelledJobs++
		}
		// Wake the drain waiter (and idle workers) when the pool
		// empties.
		q.cond.Broadcast()
		q.mu.Unlock()
		// Release waiters only now that the counters include the job:
		// whoever sees it finish must also see it counted.
		close(j.done)
	}
}

// observeQueueWait accounts the submit→pickup interval for j into the
// histogram, the cumulative counter and the job trace's "queue.wait"
// span. It runs for every job that leaves the queue: executed AND
// drain-cancelled.
func (q *Queue) observeQueueWait(j *Job, submitted, pickup time.Time, cancelled bool) {
	wait := pickup.Sub(submitted)
	if wait < 0 {
		wait = 0
	}
	q.waitNanos.Add(int64(wait))
	q.queueWait.ObserveDuration(wait)
	attrs := []obs.Attr{obs.String("priority", j.Priority.String())}
	if cancelled {
		attrs = append(attrs, obs.Bool("cancelled", true))
	}
	j.trace.Record("queue.wait", submitted, pickup, attrs...)
}

// failFast terminates a queued job on the hard-drain path without
// invoking its function: typed budget error, queue wait recorded,
// started left zero (it never ran). It returns the job's error.
func (q *Queue) failFast(j *Job) error {
	now := time.Now()
	err := cerr.New(cerr.CodeBudgetExceeded,
		"jobs: %s cancelled before execution (drain budget expired)", j.ID)
	j.mu.Lock()
	submitted := j.submitted
	j.finished = now
	j.value, j.err = nil, err
	j.mu.Unlock()
	q.observeQueueWait(j, submitted, now, true)
	return err
}

// run executes one job under the per-job deadline, converting panics
// and deadline expiry into typed errors, and returns the job's error.
func (q *Queue) run(j *Job) error {
	// A scripted queue.stall delay lands between pop and execution:
	// the worker is wedged, queue depth builds, admission control
	// sheds — exactly the overload drill's setup.
	q.cfg.Chaos.Delay(chaos.PointQueueStall)
	now := time.Now()
	j.mu.Lock()
	j.started = now
	submitted := j.submitted
	j.mu.Unlock()
	q.observeQueueWait(j, submitted, now, false)

	ctx := q.baseCtx
	var cancel context.CancelFunc
	if q.cfg.Deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, q.cfg.Deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	ctx = obs.WithTrace(ctx, j.trace)

	var value any
	err := func() (err error) {
		defer cerr.Recover("job", &err)
		value, err = j.fn(ctx)
		return err
	}()
	if err == nil && ctx.Err() != nil {
		// The kernel returned a value despite an expired context;
		// surface the budget violation rather than a silently-partial
		// result.
		err = cerr.Wrap(cerr.CodeBudgetExceeded, ctx.Err(), "jobs: %s deadline", j.ID)
	}

	j.mu.Lock()
	j.value, j.err = value, err
	j.finished = time.Now()
	j.mu.Unlock()
	return err
}

// Shutdown gracefully drains the queue: intake stops immediately,
// queued and running jobs are given until ctx expires to finish, then
// the base context is cancelled (unwinding the deadline kernels) and
// the workers are joined. It returns nil on a clean drain or the drain
// context's error when work had to be cancelled.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		// Already draining: just wait for the workers.
		q.wg.Wait()
		return nil
	}
	q.draining = true
	q.cond.Broadcast()
	q.mu.Unlock()

	done := make(chan struct{})
	go func() {
		q.mu.Lock()
		for q.heap.Len() > 0 || q.running > 0 {
			q.cond.Wait()
		}
		q.mu.Unlock()
		close(done)
	}()

	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		// Hard-cancel in-flight work; still-queued jobs are failed
		// fast (with their queue wait recorded) rather than run
		// against the dead base context. The drain waiter goroutine
		// exits once the workers observe cancellation and finish.
		q.mu.Lock()
		q.hardDrain = true
		q.cond.Broadcast()
		q.mu.Unlock()
		q.cancel()
		<-done
	}
	q.cancel()
	q.wg.Wait()
	return err
}

// Job returns the job with the given ID while the queue holds it:
// queued, running, or among the newest KeepFinished finished jobs.
func (q *Queue) Job(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.byID[id]
	return j, ok
}

// Stats snapshots the counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{
		Workers: q.cfg.Workers, Queued: q.heap.Len(), Running: q.running,
		Submitted: q.submitted, Deduped: q.deduped,
		Completed: q.completed, Failed: q.failed, Rejected: q.rejected,
		Cancelled:        q.cancelledJobs,
		QueueWaitMsTotal: float64(q.waitNanos.Load()) / 1e6,
		Draining:         q.draining, Deadline: q.cfg.Deadline,
	}
}

// jobHeap orders by (priority, seq): lower priority value first, FIFO
// within a class.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].Priority != h[j].Priority {
		return h[i].Priority < h[j].Priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}
