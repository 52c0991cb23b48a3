package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSONL writes spans one JSON object per line — the grep/jq-friendly
// export format.
func WriteJSONL(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace_event JSON array format
// (load the file at chrome://tracing or ui.perfetto.dev). Spans map to
// instant events ("ph":"i") at microsecond timestamps, one thread lane per
// node.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"` // microseconds
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s"` // instant-event scope: "t" = thread
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes spans as a Chrome trace_event JSON array: each
// span becomes a thread-scoped instant event on its node's lane, with the
// peer and note carried in args. Virtual seconds map to trace microseconds.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		ev := chromeEvent{
			Name:  s.Kind,
			Phase: "i",
			Ts:    s.At * 1e6,
			Pid:   0,
			Tid:   s.Node,
			Scope: "t",
		}
		if s.Peer >= 0 || s.Note != "" {
			ev.Args = map[string]any{"peer": s.Peer}
			if s.Note != "" {
				ev.Args["note"] = s.Note
			}
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// FormatCounts renders per-kind span counts as stable "kind=N" lines,
// sorted by kind — the summary bulletctl trace prints.
func FormatCounts[N int | uint64](w io.Writer, counts map[string]N) {
	for _, kind := range sortedKeys(counts) {
		fmt.Fprintf(w, "%s=%d\n", kind, counts[kind])
	}
}
