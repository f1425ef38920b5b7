// Live sweep progress: a bounded per-sweep event feed, its SSE
// rendering (GET /v1/sweeps/{id}/events on both the shard and the
// gateway), and the client-side watcher.
//
// Every point transition appends one numbered event to the sweep's
// feed: "started" when its compile is submitted, then exactly one
// terminal "completed" / "cached" / "failed". When the last point
// lands, a numbered terminal summary event closes the feed. Numbered
// events are replayable by cursor (`?from=` / Last-Event-ID), so a
// subscriber that connects late — or reconnects after a drop — still
// sees every point exactly once. A sweep emits at most two numbered
// events per point plus the summary, so the feed keeps them all until
// the retention layer drops the whole sweep.
package sweep

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cerr"
)

// DefaultEventHeartbeat is the SSE keep-alive cadence the daemon and
// the gateway stream sweep events with.
const DefaultEventHeartbeat = 10 * time.Second

// Event is one frame on a sweep's event stream. Numbered events
// (Seq > 0) are the replayable record; live summary frames synthesized
// per heartbeat carry Seq 0 and are advisory.
type Event struct {
	Seq     int           `json:"seq,omitempty"`
	Type    string        `json:"type"` // "point" | "summary"
	SweepID string        `json:"sweep_id"`
	Point   *PointEvent   `json:"point,omitempty"`
	Summary *SummaryEvent `json:"summary,omitempty"`
}

// PointEvent describes one point transition.
type PointEvent struct {
	Index     int    `json:"index"`
	Key       string `json:"key"`
	Status    string `json:"status"` // started | completed | cached | failed
	Cached    bool   `json:"cached,omitempty"`
	Error     string `json:"error,omitempty"`
	ErrorCode string `json:"error_code,omitempty"`
}

// SummaryEvent is an aggregate progress frame. Terminal marks the
// sweep's final summary — the stream ends after it.
type SummaryEvent struct {
	State    string `json:"state"` // running | done | failed
	Total    int    `json:"total"`
	Pending  int    `json:"pending"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Cached   int    `json:"cached"`
	Terminal bool   `json:"terminal"`
}

// feed is the per-sweep event log plus subscriber wakeups. The event
// numbered Seq is events[Seq-1].
type feed struct {
	mu      sync.Mutex
	sweepID string
	events  []Event
	subs    map[chan struct{}]struct{}
}

func newFeed(sweepID string) *feed {
	return &feed{sweepID: sweepID, subs: map[chan struct{}]struct{}{}}
}

// emit numbers and appends ev, then wakes every subscriber
// (non-blocking — each subscriber channel has capacity 1, a pending
// wakeup is wakeup enough).
func (f *feed) emit(ev Event) {
	f.mu.Lock()
	ev.Seq = len(f.events) + 1
	ev.SweepID = f.sweepID
	f.events = append(f.events, ev)
	for ch := range f.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	f.mu.Unlock()
}

// since returns a copy of the numbered events with Seq > after.
func (f *feed) since(after int) []Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	after = max(after, 0)
	if after >= len(f.events) {
		return nil
	}
	return append([]Event(nil), f.events[after:]...)
}

// subscribe registers a wakeup channel; the returned cancel must be
// called exactly once.
func (f *feed) subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	f.mu.Lock()
	f.subs[ch] = struct{}{}
	f.mu.Unlock()
	return ch, func() {
		f.mu.Lock()
		delete(f.subs, ch)
		f.mu.Unlock()
	}
}

// EventsSince returns the sweep's numbered events with Seq > after —
// the cursor-replay primitive behind `?from=` and Last-Event-ID.
func (sw *Sweep) EventsSince(after int) []Event {
	return sw.feed.since(after)
}

// NotifyEvents subscribes to event-arrival wakeups. Call cancel when
// done listening.
func (sw *Sweep) NotifyEvents() (<-chan struct{}, func()) {
	return sw.feed.subscribe()
}

// Summary snapshots the aggregate progress counts.
func (sw *Sweep) Summary() SummaryEvent {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.summaryLocked()
}

// summaryLocked computes the aggregate counts and state — the one
// counting rule behind Summary, Status and the event feed; caller
// holds sw.mu.
func (sw *Sweep) summaryLocked() SummaryEvent {
	s := SummaryEvent{Total: len(sw.points)}
	for _, pt := range sw.points {
		switch pt.state {
		case pointDone:
			s.Done++
			if pt.cached {
				s.Cached++
			}
		case pointFailed:
			s.Failed++
		default:
			s.Pending++
		}
	}
	switch {
	case s.Pending > 0:
		s.State = "running"
	case s.Failed == s.Total && s.Total > 0:
		s.State = "failed"
	default:
		s.State = "done"
	}
	s.Terminal = s.Pending == 0
	return s
}

// ServeEvents streams the sweep's feed as Server-Sent Events:
// numbered point/summary frames (replayed from the `?from=` or
// Last-Event-ID cursor), a live unnumbered summary plus a comment
// keep-alive every heartbeat (which must be positive), and
// termination right after the numbered terminal summary. Both the shard server and the gateway
// mount this on GET /v1/sweeps/{id}/events.
func ServeEvents(w http.ResponseWriter, r *http.Request, sw *Sweep, heartbeat time.Duration) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by this connection", http.StatusInternalServerError)
		return
	}
	cursor := 0
	if v := r.URL.Query().Get("from"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			cursor = n
		}
	} else if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			cursor = n
		}
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	wake, cancel := sw.NotifyEvents()
	defer cancel()
	tick := time.NewTicker(heartbeat)
	defer tick.Stop()

	flush := func() bool {
		for _, ev := range sw.EventsSince(cursor) {
			cursor = ev.Seq
			if err := writeEvent(w, ev); err != nil {
				return false
			}
			if ev.Summary != nil && ev.Summary.Terminal {
				fl.Flush()
				return false
			}
		}
		fl.Flush()
		return true
	}
	if !flush() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-wake:
			if !flush() {
				return
			}
		case <-tick.C:
			// Keep-alive comment plus an advisory live summary (Seq 0:
			// never consumes the cursor, so replays stay exact).
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				return
			}
			live := sw.Summary()
			if err := writeEvent(w, Event{Type: "summary", SweepID: sw.ID, Summary: &live}); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// writeEvent renders one SSE frame; numbered events carry an id line
// so browsers and Watch resume from Last-Event-ID.
func writeEvent(w http.ResponseWriter, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if ev.Seq > 0 {
		_, err = fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, data)
	} else {
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
	}
	return err
}

// Watch consumes GET /v1/sweeps/{id}/events until the terminal
// summary arrives, invoking onEvent (when non-nil) for every frame.
// Dropped connections resume from the last numbered event via
// `?from=`, and numbered frames are deduplicated by Seq, so each
// point transition is delivered exactly once across reconnects.
// Returns the terminal summary event.
func (c *Client) Watch(ctx context.Context, id string, onEvent func(Event)) (Event, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	attempts := c.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	lastSeq := 0
	failures := 0
	for {
		term, progressed, err := c.watchOnce(ctx, id, &lastSeq, onEvent)
		if err == nil {
			return term, nil
		}
		if ctx.Err() != nil {
			return Event{}, cerr.Wrap(cerr.CodeBudgetExceeded, ctx.Err(), "sweep client: watching %s", id)
		}
		if progressed {
			failures = 0 // a live stream that dropped mid-way: keep following
		}
		failures++
		if failures >= attempts {
			return Event{}, err
		}
		select {
		case <-ctx.Done():
			return Event{}, cerr.Wrap(cerr.CodeBudgetExceeded, ctx.Err(), "sweep client: watching %s", id)
		case <-time.After(c.backoff(failures-1, 0)):
		}
	}
}

// watchOnce runs one streaming connection. progressed reports whether
// any frame arrived (resets the reconnect budget); on a clean
// terminal summary it returns that event.
func (c *Client) watchOnce(ctx context.Context, id string, lastSeq *int, onEvent func(Event)) (term Event, progressed bool, err error) {
	url := fmt.Sprintf("%s/v1/sweeps/%s/events?from=%d", c.Base, id, *lastSeq)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return Event{}, false, cerr.Wrap(cerr.CodeInvalidParams, err, "sweep client: bad watch request")
	}
	req.Header.Set("Accept", "text/event-stream")
	// A stream outlives any whole-request timeout, so it goes out on
	// the timeout-free default client; ctx ends it.
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return Event{}, false, cerr.Wrap(cerr.CodeInternal, err, "sweep client: watch %s", id)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Event{}, false, cerr.New(cerr.CodeInternal,
			"sweep client: watch %s: status %d", id, resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	var data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data == "" {
				continue
			}
			var ev Event
			if jerr := json.Unmarshal([]byte(data), &ev); jerr != nil {
				return Event{}, progressed, cerr.Wrap(cerr.CodeInternal, jerr, "sweep client: watch frame")
			}
			data = ""
			progressed = true
			if ev.Seq > 0 {
				if ev.Seq <= *lastSeq {
					continue // replayed duplicate across a reconnect
				}
				*lastSeq = ev.Seq
			}
			if onEvent != nil {
				onEvent(ev)
			}
			if ev.Seq > 0 && ev.Summary != nil && ev.Summary.Terminal {
				return ev, true, nil
			}
		case strings.HasPrefix(line, ":"):
			progressed = true // heartbeat
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		default:
			// event:/id: lines — the JSON payload is authoritative.
		}
	}
	if serr := sc.Err(); serr != nil {
		return Event{}, progressed, cerr.Wrap(cerr.CodeInternal, serr, "sweep client: watch stream")
	}
	return Event{}, progressed, cerr.New(cerr.CodeInternal,
		"sweep client: watch %s: stream ended before the terminal summary", id)
}
