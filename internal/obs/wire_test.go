package obs

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestTraceparentRoundTrip: Format → Parse recovers the trace ID and
// span ID exactly.
func TestTraceparentRoundTrip(t *testing.T) {
	hv := FormatTraceparent("cafe0123deadbeef", 0x2a)
	if want := "00-cafe0123deadbeef-000000000000002a-01"; hv != want {
		t.Fatalf("header = %q, want %q", hv, want)
	}
	id, span, ok := ParseTraceparent(hv)
	if !ok || id != "cafe0123deadbeef" || span != 0x2a {
		t.Fatalf("parse = (%q, %d, %v)", id, span, ok)
	}
}

// TestTraceparentReject: malformed values are refused rather than
// guessed at.
func TestTraceparentReject(t *testing.T) {
	bad := []string{
		"",
		"00-abc",                            // too few parts
		"01-cafe-0000000000000001-01",       // unknown version
		"00--0000000000000001-01",           // empty trace ID
		"00-cafe-001-01",                    // span not 16 hex chars
		"00-cafe-00000000000000zz-01",       // span not hex
		"00-cafe-0000000000000001-01-extra", // too many parts
	}
	for _, v := range bad {
		if _, _, ok := ParseTraceparent(v); ok {
			t.Errorf("ParseTraceparent(%q) accepted", v)
		}
	}
}

// TestInject: a traced context injects the open span as the wire
// parent; an untraced context injects nothing.
func TestInject(t *testing.T) {
	if _, ok := Inject(context.Background()); ok {
		t.Fatal("untraced context produced a header")
	}
	tr := NewTrace("feed")
	ctx := WithTrace(context.Background(), tr)
	sctx, end := Start(ctx, "proxy.route")
	defer end()
	hv, ok := Inject(sctx)
	if !ok {
		t.Fatal("traced context produced no header")
	}
	id, span, ok := ParseTraceparent(hv)
	if !ok || id != "feed" {
		t.Fatalf("injected header %q parsed to (%q, %v)", hv, id, ok)
	}
	if span != SpanIDFromContext(sctx) || span == 0 {
		t.Fatalf("injected span %d, open span %d", span, SpanIDFromContext(sctx))
	}
}

// TestSpanSetRoundTrip: SpanSet → JSON → ParseSpanSet preserves spans,
// attributes, node identity and the remote-parent link.
func TestSpanSetRoundTrip(t *testing.T) {
	tr := NewTraceRemote("abcd", 7)
	base := time.Now()
	tr.Record("compile", base, base.Add(2*time.Millisecond), String("cache", "miss"))
	tr.Record("floorplan", base.Add(time.Millisecond), base.Add(2*time.Millisecond))

	ss := tr.SpanSet("http://shard-1")
	if ss.TraceID != "abcd" || ss.Node != "http://shard-1" || ss.RemoteParent != 7 {
		t.Fatalf("span set header: %+v", ss)
	}
	b, err := ss.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSpanSet(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != ss.TraceID || got.Node != ss.Node || got.RemoteParent != ss.RemoteParent {
		t.Fatalf("parsed header mismatch: %+v", got)
	}
	if len(got.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(got.Spans))
	}
	if got.Spans[0].Name != "compile" || got.Spans[0].Attrs["cache"] != "miss" {
		t.Fatalf("span 0: %+v", got.Spans[0])
	}
	if got.Spans[0].StartUnixNs != base.UnixNano() || got.Spans[0].DurNs != int64(2*time.Millisecond) {
		t.Fatalf("span 0 timing: %+v", got.Spans[0])
	}

	// A nil trace exports an inert set; garbage bytes are an error.
	var nilTr *Trace
	if ss := nilTr.SpanSet("x"); ss.TraceID != "" || len(ss.Spans) != 0 {
		t.Fatalf("nil trace span set: %+v", ss)
	}
	if _, err := ParseSpanSet([]byte("{")); err == nil {
		t.Fatal("malformed span set accepted")
	}
}

// mergeFixture builds a two-process trace: a gateway whose proxy.route
// span injected the wire identity, and a shard whose compile span tree
// must splice under it after the merge.
func mergeFixture(t *testing.T) (gw, shard SpanSet, routeID uint64) {
	t.Helper()
	epoch := time.Unix(0, 1_000_000_000)

	gwTr := NewTrace("trace-1")
	gwTr.Record("http.POST /v1/compile", epoch, epoch.Add(10*time.Millisecond))
	gwTr.Record("proxy.route", epoch.Add(time.Millisecond), epoch.Add(9*time.Millisecond), String("peer", "http://shard-1"))
	gwSet := gwTr.SpanSet("gateway")
	for _, ws := range gwSet.Spans {
		if ws.Name == "proxy.route" {
			routeID = ws.ID
		}
	}
	if routeID == 0 {
		t.Fatal("fixture: proxy.route span missing")
	}

	shardTr := NewTraceRemote("trace-1", routeID)
	ctx := WithTrace(context.Background(), shardTr)
	c1, end1 := Start(ctx, "compile")
	_, end2 := Start(c1, "floorplan")
	end2()
	end1()
	return gwSet, shardTr.SpanSet("http://shard-1"), routeID
}

// TestMergeSpanSets: merging re-parents the shard's root span under
// the gateway's proxy.route span, keeps intra-shard parent links,
// renumbers IDs 1…n so the two processes' ranges cannot collide, and
// names each span's process in its node attribute.
func TestMergeSpanSets(t *testing.T) {
	gwSet, shardSet, _ := mergeFixture(t)
	m := MergeSpanSets([]SpanSet{gwSet, shardSet})
	if m.TraceID != "trace-1" || m.Node != "merged" {
		t.Fatalf("merged header: trace %q node %q", m.TraceID, m.Node)
	}
	if len(m.Spans) != 4 {
		t.Fatalf("got %d merged spans, want 4", len(m.Spans))
	}
	byName := map[string]WireSpan{}
	seen := map[uint64]bool{}
	for _, s := range m.Spans {
		byName[s.Name] = s
		if s.ID < 1 || s.ID > 4 || seen[s.ID] {
			t.Fatalf("merged ID %d not a unique ID in 1..4", s.ID)
		}
		seen[s.ID] = true
	}
	route, compile, fp := byName["proxy.route"], byName["compile"], byName["floorplan"]
	if compile.Parent != route.ID {
		t.Errorf("compile.Parent = %d, want proxy.route %d", compile.Parent, route.ID)
	}
	if fp.Parent != compile.ID {
		t.Errorf("floorplan.Parent = %d, want compile %d", fp.Parent, compile.ID)
	}
	if route.Attrs["node"] != "gateway" || compile.Attrs["node"] != "http://shard-1" {
		t.Errorf("node attribution: route=%q compile=%q", route.Attrs["node"], compile.Attrs["node"])
	}

	// A merged set merges again: its spans keep their node attributes.
	again := MergeSpanSets([]SpanSet{m})
	for _, s := range again.Spans {
		if s.Attrs["node"] != byName[s.Name].Attrs["node"] {
			t.Errorf("re-merge renamed %s's node to %q", s.Name, s.Attrs["node"])
		}
	}
}

// TestMergeSkipsForeignTrace: a span set whose trace ID disagrees with
// the base must not splice into the merged trace.
func TestMergeSkipsForeignTrace(t *testing.T) {
	gwSet, shardSet, _ := mergeFixture(t)
	foreign := shardSet
	foreign.TraceID = "other-trace"
	m := MergeSpanSets([]SpanSet{gwSet, foreign})
	if len(m.Spans) != 2 {
		t.Fatalf("foreign set merged: %d spans", len(m.Spans))
	}
	for _, s := range m.Spans {
		if s.Attrs["node"] != "gateway" {
			t.Fatalf("foreign set merged: span %s on node %q", s.Name, s.Attrs["node"])
		}
	}
}

// TestMergeUnknownRemoteParent: when the remote parent span is absent
// from the base set the shard roots stay roots (orphan promotion)
// instead of pointing at a dangling ID.
func TestMergeUnknownRemoteParent(t *testing.T) {
	gwSet, shardSet, _ := mergeFixture(t)
	shardSet.RemoteParent = 999
	m := MergeSpanSets([]SpanSet{gwSet, shardSet})
	for _, s := range m.Spans {
		if s.Name == "compile" && s.Parent != 0 {
			t.Fatalf("compile parented under dangling ID %d", s.Parent)
		}
	}
}

// TestMergeHostileSpanIDs: shard-supplied span IDs are untrusted. An ID
// of 2^64-1, which shifting by the base set's largest ID wrapped to 0,
// and a repeated ID naming its twin as parent both used to make the
// tree walk recurse forever; merging and rendering must return, with
// every span printed exactly once.
func TestMergeHostileSpanIDs(t *testing.T) {
	gw := SpanSet{TraceID: "t", Node: "gateway", Spans: []WireSpan{{ID: 1, Name: "proxy.route"}}}
	for name, shard := range map[string]SpanSet{
		"max-id": {TraceID: "t", Node: "shard", Spans: []WireSpan{
			{ID: math.MaxUint64, Name: "compile", StartUnixNs: 1},
		}},
		"twin-ids": {TraceID: "t", Node: "shard", RemoteParent: 1, Spans: []WireSpan{
			{ID: 2, Name: "compile", StartUnixNs: 1},
			{ID: 2, Parent: 2, Name: "floorplan", StartUnixNs: 2},
		}},
	} {
		t.Run(name, func(t *testing.T) {
			m := MergeSpanSets([]SpanSet{gw, shard})
			out := m.Tree()
			if lines := strings.Count(out, "\n"); lines != 1+len(m.Spans) {
				t.Fatalf("tree has %d lines, want a header and %d spans:\n%s", lines, len(m.Spans), out)
			}
			checkMerged(t, m)
		})
	}
}

// checkMerged asserts the merged-set invariants: IDs unique and
// nonzero, every parent 0 or a merged ID, every span named to a node.
func checkMerged(t *testing.T, m SpanSet) {
	t.Helper()
	ids := map[uint64]bool{}
	for _, s := range m.Spans {
		if s.ID == 0 || ids[s.ID] {
			t.Fatalf("merged ID %d is zero or repeated", s.ID)
		}
		ids[s.ID] = true
	}
	for _, s := range m.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("span %d names parent %d, which is not a merged span", s.ID, s.Parent)
		}
		if s.Attrs["node"] == "" {
			t.Fatalf("span %d has no node attribute", s.ID)
		}
	}
}

// FuzzMergeSpanSets: span sets built from the input — IDs drawn from a
// small range plus the top of uint64, so repeats, self-parents, parent
// cycles and wrap-around all occur — merge into a set whose IDs are
// unique, whose parents are 0 or merged IDs, and which every renderer
// returns on, the tree printing each span once.
func FuzzMergeSpanSets(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 9, 1, 2, 0, 1, 5}, uint8(1), uint8(0), false)
	f.Add([]byte{0, 1, 0, 0, 1, 1, 6, 0, 1, 1, 2, 2, 2, 2, 2}, uint8(0), uint8(6), true)
	f.Add([]byte{1, 2, 2, 0, 0, 1, 2, 2, 1, 1, 129, 3, 4, 7, 7, 129, 4, 3, 8, 8}, uint8(3), uint8(2), false)
	f.Fuzz(func(t *testing.T, data []byte, remote1, remote2 uint8, foreign bool) {
		ids := [...]uint64{0, 1, 2, 3, 4, math.MaxUint64 - 1, math.MaxUint64}
		sets := []SpanSet{
			{TraceID: "t", Node: "gateway"},
			{TraceID: "t", Node: "shard-1", RemoteParent: ids[int(remote1)%len(ids)]},
			{TraceID: "t", RemoteParent: ids[int(remote2)%len(ids)]},
		}
		if foreign {
			sets[2].TraceID = "u"
		}
		// At most 64 spans: every defect this hunts shows in a few, and
		// larger sets only slow each run and the minimisation of inputs.
		if len(data) > 5*64 {
			data = data[:5*64]
		}
		want := 0
		for ; len(data) >= 5; data = data[5:] {
			set := int(data[0]&0x7f) % len(sets)
			ws := WireSpan{
				ID:          ids[int(data[1])%len(ids)],
				Parent:      ids[int(data[2])%len(ids)],
				Name:        "s",
				StartUnixNs: int64(data[3]),
				DurNs:       int64(data[4]),
			}
			if data[0]&0x80 != 0 {
				ws.Attrs = map[string]string{"node": "inner"}
			}
			sets[set].Spans = append(sets[set].Spans, ws)
			if sets[set].TraceID == "t" {
				want++
			}
		}
		m := MergeSpanSets(sets)
		if len(m.Spans) != want {
			t.Fatalf("merged %d spans, want %d", len(m.Spans), want)
		}
		checkMerged(t, m)
		if lines := strings.Count(m.Tree(), "\n"); lines != 1+want {
			t.Fatalf("tree has %d lines, want %d", lines, 1+want)
		}
		if _, err := m.JSON(); err != nil {
			t.Fatal(err)
		}
		if b, err := m.ChromeJSON(); err != nil || !json.Valid(b) {
			t.Fatalf("chrome export: %v", err)
		}
	})
}

// TestMergedChromeJSON: the Chrome export carries one pid per node
// with process_name metadata, and each slice's args expose the
// remapped span/parent IDs so the cross-process link is inspectable.
func TestMergedChromeJSON(t *testing.T) {
	gwSet, shardSet, _ := mergeFixture(t)
	m := MergeSpanSets([]SpanSet{gwSet, shardSet})
	b, err := m.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b)
	}
	procs := map[int]string{}
	pids := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.Pid] = ev.Args["name"]
		} else if ev.Ph == "X" {
			pids[ev.Name] = ev.Pid
		}
	}
	if procs[1] != "gateway" || procs[2] != "http://shard-1" {
		t.Fatalf("process names: %v", procs)
	}
	if pids["proxy.route"] != 1 || pids["compile"] != 2 || pids["floorplan"] != 2 {
		t.Fatalf("slice pids: %v", pids)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "compile" {
			if ev.Args["parent_id"] == "0" || ev.Args["span_id"] == "" {
				t.Fatalf("compile args missing parent link: %v", ev.Args)
			}
		}
	}
}

// TestMergedTree: the text rendering nests the shard's compile under
// the gateway's proxy.route and annotates the process transition.
func TestMergedTree(t *testing.T) {
	gwSet, shardSet, _ := mergeFixture(t)
	m := MergeSpanSets([]SpanSet{gwSet, shardSet})
	out := m.Tree()
	if !strings.Contains(out, "node=http://shard-1") {
		t.Fatalf("tree missing process-transition annotation:\n%s", out)
	}
	indent := func(name string) int {
		for _, line := range strings.Split(out, "\n") {
			trimmed := strings.TrimLeft(line, " ")
			if strings.HasPrefix(trimmed, name+" ") {
				return len(line) - len(trimmed)
			}
		}
		t.Fatalf("span %q missing from tree:\n%s", name, out)
		return 0
	}
	if !(indent("proxy.route") < indent("compile") && indent("compile") < indent("floorplan")) {
		t.Fatalf("cross-process nesting broken:\n%s", out)
	}
}
