package obsv

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/protocol"
)

// chromeEvent is one entry of the Chrome trace-event JSON format (the
// "JSON Array Format" consumed by Perfetto and chrome://tracing). Timestamps
// are microseconds; the simulator's 300 MHz virtual clock converts at 300
// cycles per microsecond.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const chromeCyclesPerMicro = 300.0

// ExportChrome writes a trace as Chrome trace-event JSON: one track (tid)
// per processor within a single process, an instant event per trace event,
// a flow arrow for every send->handle message edge so Perfetto draws the
// protocol's causality across tracks, and an async event pair per
// reconstructed request span — nested stage slices on the requester's
// track — so the tail of a run can be inspected stage by stage.
// Deterministic for identical traces.
func ExportChrome(events []protocol.TraceEvent, w io.Writer) error {
	c := BuildCausal(events)
	out := make([]chromeEvent, 0, 2*len(events))
	seen := make([]bool, c.NumProcs)
	for i := range events {
		seen[events[i].Proc] = true
	}
	for p, ok := range seen {
		if ok {
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 0, Tid: p,
				Args: map[string]any{"name": fmt.Sprintf("p%d", p)},
			})
		}
	}
	for i, e := range events {
		name := e.Op
		if e.Msg != "" {
			name = e.Op + " " + e.Msg
		}
		ts := float64(e.Time) / chromeCyclesPerMicro
		args := map[string]any{"seq": e.Seq, "blk": e.BaseLine}
		if d := e.AppendDetail(nil); len(d) > 0 {
			args["detail"] = string(d)
		}
		out = append(out, chromeEvent{
			Name: name, Ph: "i", Ts: ts, Pid: 0, Tid: e.Proc, S: "t", Args: args,
		})
		// Flow arrows: "s" at the send, "f" (binding to the enclosing
		// instant) at the handle, keyed by the send's event index.
		if l := c.LegOf[i]; l >= 0 && c.Legs[l].Send == int32(i) && c.Legs[l].Handle >= 0 {
			out = append(out, chromeEvent{
				Name: "msg " + e.Msg, Ph: "s", Ts: ts, Pid: 0, Tid: e.Proc, ID: i + 1,
			})
		}
		if s := c.SendOf(i); s >= 0 {
			out = append(out, chromeEvent{
				Name: "msg " + e.Msg, Ph: "f", BP: "e", Ts: ts, Pid: 0, Tid: e.Proc, ID: s + 1,
			})
		}
	}
	// Request spans: async ("b"/"e") events on the requester's track, one
	// outer slice per span and one nested slice per stage. Async ids are
	// the span's anchor seq, unique within a trace.
	ss := c.Spans()
	for i := range ss.Spans {
		s := &ss.Spans[i]
		id := int(s.Seq)
		name := fmt.Sprintf("%s blk%d", s.Kind, s.Block)
		args := map[string]any{
			"home": s.Home, "owner": s.Owner, "hops": s.Hops,
			"route": s.route(), "cycles": s.Total(),
		}
		out = append(out, chromeEvent{
			Name: name, Cat: "span", Ph: "b", Ts: float64(s.Start) / chromeCyclesPerMicro,
			Pid: 0, Tid: s.Requester, ID: id, Args: args,
		})
		t := s.Start
		for _, st := range s.Stages {
			out = append(out, chromeEvent{
				Name: st.Name, Cat: "span", Ph: "b", Ts: float64(t) / chromeCyclesPerMicro,
				Pid: 0, Tid: s.Requester, ID: id,
			})
			t += st.Cycles
			out = append(out, chromeEvent{
				Name: st.Name, Cat: "span", Ph: "e", Ts: float64(t) / chromeCyclesPerMicro,
				Pid: 0, Tid: s.Requester, ID: id,
			})
		}
		out = append(out, chromeEvent{
			Name: name, Cat: "span", Ph: "e", Ts: float64(s.End) / chromeCyclesPerMicro,
			Pid: 0, Tid: s.Requester, ID: id,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
