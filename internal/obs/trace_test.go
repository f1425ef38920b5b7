package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestStartNesting: Start under a traced context records parent links,
// and the untraced path is a pure no-op.
func TestStartNesting(t *testing.T) {
	tr := NewTrace("test")
	ctx := WithTrace(context.Background(), tr)
	c1, end1 := Start(ctx, "outer")
	c2, end2 := Start(c1, "inner")
	_ = c2
	end2(Int("n", 3))
	end1()
	end1() // idempotent: second call must not double-record

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	var outer, inner Span
	for _, s := range spans {
		switch s.Name {
		case "outer":
			outer = s
		case "inner":
			inner = s
		}
	}
	if outer.ID == 0 || inner.ID == 0 {
		t.Fatalf("missing spans: %+v", spans)
	}
	if inner.Parent != outer.ID {
		t.Errorf("inner.Parent = %d, want %d", inner.Parent, outer.ID)
	}
	if outer.Parent != 0 {
		t.Errorf("outer.Parent = %d, want 0 (root)", outer.Parent)
	}
	if len(inner.Attrs) != 1 || inner.Attrs[0].Key != "n" || inner.Attrs[0].Value != "3" {
		t.Errorf("inner attrs = %v", inner.Attrs)
	}
}

// TestStartUntraced: without a trace in the context both returns are
// no-ops and nothing is recorded anywhere.
func TestStartUntraced(t *testing.T) {
	ctx, end := Start(context.Background(), "ghost")
	end()
	if FromContext(ctx) != nil {
		t.Fatal("untraced Start attached a trace")
	}
	var tr *Trace
	tr.Record("x", time.Now(), time.Now()) // nil-safe
	if tr.Len() != 0 || tr.Spans() != nil || len(tr.SpanSet("").Spans) != 0 {
		t.Fatal("nil trace not inert")
	}
}

// TestConcurrentSpans records spans from many goroutines into one
// trace; under -race this proves the recording path, and every span
// must survive with a unique ID.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTrace("conc")
	ctx := WithTrace(context.Background(), tr)
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c, end := Start(ctx, "op")
				_, end2 := Start(c, "nested")
				end2()
				end()
			}
		}()
	}
	wg.Wait()
	spans := tr.Spans()
	if got, want := len(spans), workers*perWorker*2; got != want {
		t.Fatalf("got %d spans, want %d", got, want)
	}
	seen := map[uint64]bool{}
	for _, s := range spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		seen[s.ID] = true
	}
}

// TestRecordClamps: a synthesized span with end < start clamps to zero
// duration instead of going negative.
func TestRecordClamps(t *testing.T) {
	tr := NewTrace("clamp")
	now := time.Now()
	tr.Record("backwards", now, now.Add(-time.Second))
	if d := tr.Spans()[0].Dur; d != 0 {
		t.Fatalf("duration = %v, want 0", d)
	}
}

// TestChromeJSON: the export is a valid trace-event document — a
// metadata event naming the process plus one complete ("X") event per
// span with µs timestamps relative to the earliest span and the span
// and parent IDs in args.
func TestChromeJSON(t *testing.T) {
	tr := NewTrace("chrome")
	base := time.Now()
	tr.Record("origin", base, base)
	tr.Record("alpha", base.Add(1*time.Millisecond), base.Add(3*time.Millisecond), String("k", "v"))
	tr.Record("beta", base.Add(4*time.Millisecond), base.Add(5*time.Millisecond))
	b, err := tr.SpanSet("").ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, b)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 4 { // metadata + 3 spans
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	if meta := doc.TraceEvents[0]; meta.Ph != "M" || meta.Args["name"] != "trace chrome" {
		t.Errorf("first event = %+v, want the process_name metadata", meta)
	}
	alpha := doc.TraceEvents[2]
	if alpha.Name != "alpha" || alpha.Ph != "X" {
		t.Fatalf("unexpected event order: %+v", doc.TraceEvents)
	}
	if alpha.Ts < 999 || alpha.Ts > 1001 {
		t.Errorf("alpha ts = %v µs, want ~1000", alpha.Ts)
	}
	if alpha.Dur < 1999 || alpha.Dur > 2001 {
		t.Errorf("alpha dur = %v µs, want ~2000", alpha.Dur)
	}
	if alpha.Args["k"] != "v" || alpha.Args["span_id"] != "2" || alpha.Args["parent_id"] != "0" {
		t.Errorf("alpha args = %v", alpha.Args)
	}
	// Nil trace exports an empty, still-valid document.
	var nilTr *Trace
	if b, err := nilTr.SpanSet("").ChromeJSON(); err != nil || !json.Valid(b) {
		t.Fatalf("nil export: %v %s", err, b)
	}
}

// TestTree renders the nested span hierarchy with indentation and
// attributes — the slow-compile forensics format.
func TestTree(t *testing.T) {
	tr := NewTrace("tree")
	ctx := WithTrace(context.Background(), tr)
	c1, end1 := Start(ctx, "compile")
	_, end2 := Start(c1, "floorplan")
	end2(Int("moves", 12))
	end1()
	out := tr.SpanSet("").Tree()
	if !strings.Contains(out, "compile") || !strings.Contains(out, "floorplan") {
		t.Fatalf("tree missing spans:\n%s", out)
	}
	if !strings.Contains(out, "moves=12") {
		t.Fatalf("tree missing attrs:\n%s", out)
	}
	// The child must be indented deeper than the parent.
	var compileIndent, fpIndent int
	for _, line := range strings.Split(out, "\n") {
		trimmed := strings.TrimLeft(line, " ")
		if strings.HasPrefix(trimmed, "compile ") {
			compileIndent = len(line) - len(trimmed)
		}
		if strings.HasPrefix(trimmed, "floorplan ") {
			fpIndent = len(line) - len(trimmed)
		}
	}
	if fpIndent <= compileIndent {
		t.Fatalf("child not indented (%d <= %d):\n%s", fpIndent, compileIndent, out)
	}
}

// TestNewIDUnique: trace IDs are 16 hex chars and collision-free in a
// small sample.
func TestNewIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewID()
		if len(id) != 16 {
			t.Fatalf("id %q has length %d", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}
