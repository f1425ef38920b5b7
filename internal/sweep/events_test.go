package sweep

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// TestFeedReplayExactlyOnce: numbered events replay from any cursor
// without gaps or duplicates, and a mid-stream cursor resumes exactly
// where it left off.
func TestFeedReplayExactlyOnce(t *testing.T) {
	f := newFeed("sw-1")
	for i := 0; i < 5; i++ {
		f.emit(Event{Type: "point", Point: &PointEvent{Index: i}})
	}
	all := f.since(0)
	if len(all) != 5 {
		t.Fatalf("since(0) returned %d events, want 5", len(all))
	}
	for i, ev := range all {
		if ev.Seq != i+1 || ev.SweepID != "sw-1" {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	// Resuming from a mid-stream cursor yields exactly the tail.
	tail := f.since(3)
	if len(tail) != 2 || tail[0].Seq != 4 || tail[1].Seq != 5 {
		t.Fatalf("since(3) = %+v", tail)
	}
	if got := f.since(5); got != nil {
		t.Fatalf("since(5) = %+v, want nil", got)
	}
}

// TestFeedSubscribeWakeup: a subscriber is woken on emit, and a
// pending wakeup coalesces instead of blocking the emitter.
func TestFeedSubscribeWakeup(t *testing.T) {
	f := newFeed("sw-1")
	wake, cancel := f.subscribe()
	defer cancel()
	f.emit(Event{Type: "point", Point: &PointEvent{Index: 0}})
	f.emit(Event{Type: "point", Point: &PointEvent{Index: 1}}) // coalesces
	select {
	case <-wake:
	case <-time.After(time.Second):
		t.Fatal("no wakeup after emit")
	}
	if got := f.since(0); len(got) != 2 {
		t.Fatalf("%d events after coalesced wakeup", len(got))
	}
}

// TestSweepEmitsEvents: a finished sweep's feed holds one started and
// one terminal event per submitted point, then a terminal summary
// whose counts agree with Status and Results.
func TestSweepEmitsEvents(t *testing.T) {
	h := newHarness(t)
	sw, err := h.m.Create(Spec{Base: baseReq(), Axes: Axes{Spares: []int{4, 8}}})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, sw)
	events := sw.EventsSince(0)
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	last := events[len(events)-1]
	if last.Summary == nil || !last.Summary.Terminal {
		t.Fatalf("last event is not the terminal summary: %+v", last)
	}
	started := map[int]int{}
	terminal := map[int]int{}
	for _, ev := range events[:len(events)-1] {
		if ev.Point == nil {
			t.Fatalf("non-point event before the terminal summary: %+v", ev)
		}
		switch ev.Point.Status {
		case "started":
			started[ev.Point.Index]++
		case "completed", "cached", "failed":
			terminal[ev.Point.Index]++
		default:
			t.Fatalf("unknown point status %q", ev.Point.Status)
		}
	}
	for i := 0; i < 2; i++ {
		if started[i] != 1 || terminal[i] != 1 {
			t.Fatalf("point %d: started %d times, terminal %d times", i, started[i], terminal[i])
		}
	}
	st := sw.Status()
	if last.Summary.Done != st.Done || last.Summary.Failed != st.Failed || last.Summary.Total != st.Total {
		t.Fatalf("terminal summary %+v disagrees with status %+v", last.Summary, st)
	}
	if res := sw.Results(); res.Complete != (last.Summary.State == "done") {
		t.Fatalf("summary state %q vs results complete %v", last.Summary.State, res.Complete)
	}
}

// TestSweepCachedPointsEvents: store-hit points skip "started" and land
// directly as cached terminals, still followed by the summary.
func TestSweepCachedPointsEvents(t *testing.T) {
	h := newHarness(t)
	spec := Spec{Base: baseReq(), Axes: Axes{Spares: []int{4, 8}}}
	sw1, err := h.m.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, sw1)

	sw2, err := h.m.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, sw2)
	events := sw2.EventsSince(0)
	for _, ev := range events {
		if ev.Point != nil && ev.Point.Status != "cached" {
			t.Fatalf("warm sweep emitted non-cached point event: %+v", ev.Point)
		}
		if ev.Point != nil && !ev.Point.Cached {
			t.Fatalf("cached point not flagged: %+v", ev.Point)
		}
	}
	last := events[len(events)-1]
	if last.Summary == nil || !last.Summary.Terminal || last.Summary.Cached != 2 {
		t.Fatalf("warm sweep summary: %+v", last.Summary)
	}
}

// eventsServer mounts the SSE handler over a harness manager the way
// the daemon does.
func eventsServer(t *testing.T, m *Manager, heartbeat time.Duration) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/sweeps/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		sw, ok := m.Get(r.PathValue("id"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		ServeEvents(w, r, sw, heartbeat)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestServeEventsWatchRoundTrip: Watch consumes the SSE stream end to
// end — every point frame exactly once, then the terminal summary, for
// both a live subscriber and one that connects after the sweep ended.
func TestServeEventsWatchRoundTrip(t *testing.T) {
	h := newHarness(t)
	srv := eventsServer(t, h.m, time.Hour)

	sw, err := h.m.Create(Spec{Base: baseReq(), Axes: Axes{Spares: []int{4, 8, 16}}})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.URL)
	run := func(name string) {
		var seen []Event
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		term, err := c.Watch(ctx, sw.ID, func(ev Event) { seen = append(seen, ev) })
		if err != nil {
			t.Fatalf("%s watch: %v", name, err)
		}
		if term.Summary == nil || !term.Summary.Terminal || term.Summary.Done != 3 {
			t.Fatalf("%s terminal: %+v", name, term.Summary)
		}
		counts := map[int]map[string]int{}
		for _, ev := range seen {
			if ev.Point == nil {
				continue
			}
			if counts[ev.Point.Index] == nil {
				counts[ev.Point.Index] = map[string]int{}
			}
			counts[ev.Point.Index][ev.Point.Status]++
		}
		for i := 0; i < 3; i++ {
			term := counts[i]["completed"] + counts[i]["cached"] + counts[i]["failed"]
			if term != 1 {
				t.Fatalf("%s: point %d delivered %d terminal frames (%v)", name, i, term, counts[i])
			}
		}
	}
	run("live")
	wait(t, sw)
	run("late") // replay after completion still delivers everything
}

// TestWatchReconnectDedup: a stream severed mid-way resumes via
// `?from=` and the client's Seq dedup keeps delivery exactly-once even
// when the server replays an already-seen frame.
func TestWatchReconnectDedup(t *testing.T) {
	events := []Event{
		{Seq: 1, Type: "point", SweepID: "sw", Point: &PointEvent{Index: 0, Status: "started"}},
		{Seq: 2, Type: "point", SweepID: "sw", Point: &PointEvent{Index: 0, Status: "completed"}},
		{Seq: 3, Type: "summary", SweepID: "sw", Summary: &SummaryEvent{State: "done", Total: 1, Done: 1, Terminal: true}},
	}
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		from, _ := strconv.Atoi(r.URL.Query().Get("from"))
		n := calls.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		if n == 1 {
			// First connection: serve one frame, then die without the
			// terminal summary.
			writeEvent(w, events[0])
			return
		}
		// Reconnect: replay one duplicate (Seq <= from) on purpose, then
		// the rest.
		if from != 1 {
			t.Errorf("reconnect cursor = %d, want 1", from)
		}
		for _, ev := range events {
			writeEvent(w, ev)
		}
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry.BaseDelay = time.Millisecond
	c.Retry.MaxDelay = 2 * time.Millisecond
	var got []Event
	term, err := c.Watch(context.Background(), "sw", func(ev Event) { got = append(got, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("%d connections, want 2", calls.Load())
	}
	if term.Summary == nil || !term.Summary.Terminal {
		t.Fatalf("terminal = %+v", term)
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d frames, want 3 (dedup failed): %+v", len(got), got)
	}
	for i, ev := range got {
		if ev.Seq != i+1 {
			t.Fatalf("frame %d has Seq %d", i, ev.Seq)
		}
	}
}

// TestWatchUnknownSweep: a 404 fails the watch with an error rather
// than hanging.
func TestWatchUnknownSweep(t *testing.T) {
	h := newHarness(t)
	srv := eventsServer(t, h.m, time.Hour)
	c := NewClient(srv.URL)
	c.Retry.MaxAttempts = 2
	c.Retry.BaseDelay = time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Watch(ctx, "nope", nil); err == nil {
		t.Fatal("watch of unknown sweep succeeded")
	}
}
