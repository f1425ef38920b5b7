package obs

import (
	"encoding/json"
	"strconv"
)

// chromeEvent is one entry of the Chrome trace-event format
// ("Trace Event Format", ph="X" complete events): timestamps and
// durations are microseconds, pid/tid pick the row. chrome://tracing
// and Perfetto load the document directly.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeJSON renders the span set as one Chrome trace-event document
// with one pid per node, each named by a process_name metadata event:
// a span's node attribute, else the set's Node, else "trace <id>".
// Timestamps count from the earliest span. Every slice carries its
// span and parent IDs in args, so cross-process parent links are
// explicit in the JSON itself; within a process the viewer stacks the
// strictly nested slices on one row.
func (s SpanSet) ChromeJSON() ([]byte, error) {
	var epoch int64
	for i, ws := range s.Spans {
		if i == 0 || ws.StartUnixNs < epoch {
			epoch = ws.StartUnixNs
		}
	}
	doc := chromeDoc{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	slices := make([]chromeEvent, 0, len(s.Spans))
	pids := map[string]int{}
	pid := func(node string) int {
		if node == "" {
			node = s.Node
		}
		if node == "" {
			node = "trace " + s.TraceID
		}
		if p, ok := pids[node]; ok {
			return p
		}
		pids[node] = len(pids) + 1
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: len(pids), Tid: 1,
			Args: map[string]string{"name": node},
		})
		return len(pids)
	}
	if len(s.Spans) == 0 {
		pid("") // a set with no spans yet still names its process
	}
	for _, ws := range s.Spans {
		ev := chromeEvent{
			Name: ws.Name,
			Cat:  "compile",
			Ph:   "X",
			Ts:   float64((ws.StartUnixNs - epoch) / 1e3),
			Dur:  float64(ws.DurNs / 1e3),
			Pid:  pid(ws.Attrs["node"]),
			Tid:  1,
			Args: map[string]string{
				"span_id":   strconv.FormatUint(ws.ID, 10),
				"parent_id": strconv.FormatUint(ws.Parent, 10),
			},
		}
		for k, v := range ws.Attrs {
			if k != "node" {
				ev.Args[k] = v
			}
		}
		slices = append(slices, ev)
	}
	doc.TraceEvents = append(doc.TraceEvents, slices...)
	return json.MarshalIndent(doc, "", " ")
}
