// Package obs is the pipeline's dependency-free telemetry kernel:
// request-scoped traces (spans carried via context, exportable as
// Chrome trace-event JSON), lock-cheap fixed-bucket latency
// histograms, gauges and counters with dual expvar-JSON/Prometheus
// exposition. It is stdlib-only and imports nothing else from this
// repository, so every layer — the compiler stages, the bounded
// kernels (floorplan refine, spice transient, bisr repair), the job
// queue, the HTTP server and the CLIs — can instrument itself without
// dependency cycles.
//
// The tracing contract is deliberately cheap when disabled: Start
// returns immediately with a no-op end function when the context
// carries no *Trace, so instrumented hot paths cost one context
// lookup. With a trace attached, each span costs two time reads, one
// atomic increment and one short critical section at end.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"context"
)

// Attr is one key/value annotation on a span (iteration counts,
// degradation notes, cache states, ...).
type Attr struct {
	Key   string
	Value string
}

// String builds a string-valued attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer-valued attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: fmt.Sprintf("%d", v)} }

// Bool builds a boolean-valued attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: fmt.Sprintf("%t", v)} }

// Span is one completed timed operation inside a trace. Parent is the
// span ID of the enclosing operation (0 = root).
type Span struct {
	ID     uint64
	Parent uint64
	Name   string
	Start  time.Time
	Dur    time.Duration
	Attrs  []Attr
}

// Trace is a request-scoped span collection, safe for concurrent
// recording. It accumulates completed spans only — in-flight spans
// live on the stack of the code holding the end function — so a
// snapshot is always consistent.
type Trace struct {
	// ID is the trace identity: a random one (NewID), or the caller's
	// when the trace continues an incoming Traceparent.
	ID string

	nextID atomic.Uint64

	// remoteParent is the span ID (in the originating process's trace)
	// this trace's root spans logically parent under — non-zero only
	// for traces extracted from an incoming traceparent header. Local
	// spans keep Parent 0; the link is applied when span sets from
	// several processes merge.
	remoteParent uint64

	mu    sync.Mutex
	spans []Span
}

// NewTrace builds a trace; an empty id mints a random one.
func NewTrace(id string) *Trace {
	if id == "" {
		id = NewID()
	}
	return &Trace{ID: id}
}

// NewTraceRemote builds a trace that continues a wire identity from
// another process: it shares the originator's trace ID and remembers
// the remote parent span its root spans belong under (see
// ParseTraceparent / SpanSet).
func NewTraceRemote(id string, remoteParent uint64) *Trace {
	tr := NewTrace(id)
	tr.remoteParent = remoteParent
	return tr
}

// NewID mints a 64-bit random hex trace ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Degraded but unique-enough fallback: the clock.
		return fmt.Sprintf("t%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// add appends a completed span.
func (t *Trace) add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Record appends a synthesized span covering [start, end] — used for
// intervals measured outside the Start/end discipline, like the queue
// wait between job submission and worker pickup.
func (t *Trace) Record(name string, start, end time.Time, attrs ...Attr) {
	if t == nil {
		return
	}
	if end.Before(start) {
		end = start
	}
	t.add(Span{
		ID:    t.nextID.Add(1),
		Name:  name,
		Start: start,
		Dur:   end.Sub(start),
		Attrs: attrs,
	})
}

// Spans returns a copy of the completed spans sorted by start time
// (ties broken by span ID, so the order is deterministic).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Len returns the completed span count.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// context plumbing ---------------------------------------------------

type ctxKey int

const (
	traceKey ctxKey = iota
	spanKey
)

// WithTrace returns a context carrying tr; spans started under it are
// recorded there.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey, tr)
}

// FromContext returns the context's trace, or nil when untraced.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey).(*Trace)
	return tr
}

// Start opens a span named name under ctx's trace and returns a
// derived context (carrying the new span as parent for nested Starts)
// plus the end function that completes the span. On an untraced
// context both returns are no-ops, so instrumentation sites never
// need to branch. The end function is idempotent: only the first call
// records.
func Start(ctx context.Context, name string) (context.Context, func(attrs ...Attr)) {
	tr := FromContext(ctx)
	if tr == nil {
		return ctx, noopEnd
	}
	parent, _ := ctx.Value(spanKey).(uint64)
	id := tr.nextID.Add(1)
	start := time.Now()
	ctx = context.WithValue(ctx, spanKey, id)
	var done atomic.Bool
	return ctx, func(attrs ...Attr) {
		if !done.CompareAndSwap(false, true) {
			return
		}
		tr.add(Span{
			ID: id, Parent: parent, Name: name,
			Start: start, Dur: time.Since(start), Attrs: attrs,
		})
	}
}

func noopEnd(...Attr) {}

// SpanIDFromContext returns the ID of the span currently open on ctx
// (the parent the next Start would record), 0 when none.
func SpanIDFromContext(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey).(uint64)
	return id
}

// Tree renders the span hierarchy as indented text with durations —
// the slow-compile forensics format. Roots (and spans whose parent is
// not in the set) are listed in span order, attributes in key order.
// A span's node attribute is shown only where it differs from its
// parent's, so a merged trace marks each process transition. Each span
// prints at most once: a malformed set whose parent links form a
// cycle still renders, each span on the cycle once.
func (s SpanSet) Tree() string {
	byID := make(map[uint64]int, len(s.Spans)) // first span holding each ID
	for i, ws := range s.Spans {
		if _, dup := byID[ws.ID]; !dup {
			byID[ws.ID] = i
		}
	}
	children := map[uint64][]int{}
	var roots []int
	var total time.Duration
	for i, ws := range s.Spans {
		if _, ok := byID[ws.Parent]; ws.Parent == 0 || !ok {
			roots = append(roots, i)
			total += time.Duration(ws.DurNs)
			continue
		}
		children[ws.Parent] = append(children[ws.Parent], i)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s: %d spans, %s root time\n", s.TraceID, len(s.Spans), total.Round(time.Microsecond))
	printed := make([]bool, len(s.Spans))
	var walk func(i, depth int)
	walk = func(i, depth int) {
		if printed[i] {
			return
		}
		printed[i] = true
		ws := s.Spans[i]
		fmt.Fprintf(&b, "%s%-*s %12s", strings.Repeat("  ", depth+1), 28-2*depth, ws.Name,
			time.Duration(ws.DurNs).Round(time.Microsecond))
		keys := make([]string, 0, len(ws.Attrs))
		for k := range ws.Attrs {
			if k != "node" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, ws.Attrs[k])
		}
		if node := ws.Attrs["node"]; node != "" {
			if p, ok := byID[ws.Parent]; ws.Parent == 0 || !ok || s.Spans[p].Attrs["node"] != node {
				fmt.Fprintf(&b, " node=%s", node)
			}
		}
		b.WriteByte('\n')
		for _, c := range children[ws.ID] {
			walk(c, depth+1)
		}
	}
	for _, i := range roots {
		walk(i, 0)
	}
	for i := range s.Spans {
		walk(i, 0) // spans on a parent cycle, which no root reaches
	}
	return b.String()
}
