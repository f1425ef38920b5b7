package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Wire identity: how a trace crosses a process boundary. The sender
// serializes its trace ID plus the currently-open span ID as a
// traceparent-style HTTP header; the receiver continues the same
// trace ID and remembers the remote span as the logical parent of its
// root spans. Each process keeps allocating its own span IDs — the
// cross-process parent link is applied only when the per-node span
// sets (SpanSet) are merged (MergeSpanSets), which also remaps IDs so
// independently-allocated ranges cannot collide.

// TraceHeader is the HTTP header carrying the wire identity.
const TraceHeader = "Traceparent"

// traceparentVersion mirrors the W3C version-prefix convention; only
// "00" is produced or accepted.
const traceparentVersion = "00"

// FormatTraceparent renders the header value:
// "00-<trace id>-<16-hex span id>-01".
func FormatTraceparent(traceID string, span uint64) string {
	return fmt.Sprintf("%s-%s-%016x-01", traceparentVersion, traceID, span)
}

// ParseTraceparent decodes a header value produced by
// FormatTraceparent. ok is false for empty, malformed or
// unknown-version values.
func ParseTraceparent(v string) (traceID string, span uint64, ok bool) {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) != 4 || parts[0] != traceparentVersion || parts[1] == "" || len(parts[2]) != 16 {
		return "", 0, false
	}
	id, err := strconv.ParseUint(parts[2], 16, 64)
	if err != nil {
		return "", 0, false
	}
	return parts[1], id, true
}

// Inject returns the traceparent header value for ctx's trace and
// currently-open span. ok is false on an untraced context — callers
// simply skip the header.
func Inject(ctx context.Context) (string, bool) {
	tr := FromContext(ctx)
	if tr == nil {
		return "", false
	}
	return FormatTraceparent(tr.ID, SpanIDFromContext(ctx)), true
}

// WireSpan is the JSON form of one completed span in a span set.
type WireSpan struct {
	ID          uint64            `json:"id"`
	Parent      uint64            `json:"parent,omitempty"`
	Name        string            `json:"name"`
	StartUnixNs int64             `json:"start_unix_ns"`
	DurNs       int64             `json:"dur_ns"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// SpanSet is one node's exported slice of a distributed trace — the
// GET /debug/trace/{id}?format=spans document. RemoteParent, when
// non-zero, names the span (in the requesting process's ID space)
// this set's root spans belong under.
type SpanSet struct {
	TraceID      string     `json:"trace_id"`
	Node         string     `json:"node,omitempty"`
	RemoteParent uint64     `json:"remote_parent,omitempty"`
	Spans        []WireSpan `json:"spans"`
}

// SpanSet exports the trace's completed spans in wire form, stamped
// with the node identity (the shard's base URL, or a role name).
func (t *Trace) SpanSet(node string) SpanSet {
	ss := SpanSet{Node: node}
	if t == nil {
		return ss
	}
	ss.TraceID = t.ID
	ss.RemoteParent = t.remoteParent
	spans := t.Spans()
	ss.Spans = make([]WireSpan, 0, len(spans))
	for _, s := range spans {
		ws := WireSpan{
			ID:          s.ID,
			Parent:      s.Parent,
			Name:        s.Name,
			StartUnixNs: s.Start.UnixNano(),
			DurNs:       int64(s.Dur),
		}
		if len(s.Attrs) > 0 {
			ws.Attrs = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				ws.Attrs[a.Key] = a.Value
			}
		}
		ss.Spans = append(ss.Spans, ws)
	}
	return ss
}

// JSON renders the span set.
func (s SpanSet) JSON() ([]byte, error) { return json.MarshalIndent(s, "", " ") }

// ParseSpanSet decodes a span-set document.
func ParseSpanSet(data []byte) (SpanSet, error) {
	var ss SpanSet
	if err := json.Unmarshal(data, &ss); err != nil {
		return SpanSet{}, fmt.Errorf("obs: span set: %w", err)
	}
	return ss, nil
}

// MergeSpanSets builds one end-to-end span set from per-node span
// sets. sets[0] is the base process (typically the gateway); later
// sets' root spans are re-parented under their RemoteParent span when
// it exists in the base set, so e.g. shard compile stages nest under
// the gateway's proxy.route span. Sets whose TraceID disagrees with the
// base are skipped — a stale retention entry must not splice into the
// wrong request.
//
// Spans are renumbered 1…n in set order, so independently allocated ID
// ranges cannot collide and no input ID, however large or repeated, can
// wrap or alias another span; a parent that names no span of its set
// becomes 0. Every span gets a "node" attribute naming its process (a
// span that already has one keeps it, so a merged set merges again),
// and the result is sorted by start time.
func MergeSpanSets(sets []SpanSet) SpanSet {
	out := SpanSet{Node: "merged", Spans: []WireSpan{}}
	if len(sets) > 0 {
		out.TraceID, out.RemoteParent = sets[0].TraceID, sets[0].RemoteParent
	}
	var base map[uint64]uint64 // base-set input ID -> merged ID
	for i, set := range sets {
		if set.TraceID != out.TraceID {
			continue
		}
		node := set.Node
		if node == "" {
			node = "node-" + strconv.Itoa(i)
		}
		first := uint64(len(out.Spans))
		ids := make(map[uint64]uint64, len(set.Spans)) // input ID -> merged ID, first span holding it
		for k, ws := range set.Spans {
			if _, dup := ids[ws.ID]; !dup {
				ids[ws.ID] = first + uint64(k) + 1
			}
		}
		for k, ws := range set.Spans {
			ms := WireSpan{
				ID:          first + uint64(k) + 1,
				Name:        ws.Name,
				StartUnixNs: ws.StartUnixNs,
				DurNs:       ws.DurNs,
				Attrs:       make(map[string]string, len(ws.Attrs)+1),
			}
			if p, ok := ids[ws.Parent]; ws.Parent != 0 && ok {
				ms.Parent = p
			} else if i > 0 && set.RemoteParent != 0 {
				// Root of a remote set: splice under the base process's
				// injecting span when it exists there.
				ms.Parent = base[set.RemoteParent]
			}
			for k, v := range ws.Attrs {
				ms.Attrs[k] = v
			}
			if ms.Attrs["node"] == "" {
				ms.Attrs["node"] = node
			}
			out.Spans = append(out.Spans, ms)
		}
		if i == 0 {
			base = ids
		}
	}
	sort.SliceStable(out.Spans, func(i, j int) bool {
		return out.Spans[i].StartUnixNs < out.Spans[j].StartUnixNs
	})
	return out
}
