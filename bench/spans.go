package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the traced pass. The benchmark records
// spans from outside, around its calls into each layer; spans inside the
// simulator are a later issue.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// SelfNs is the span's duration minus the part its children cover.
	SelfNs int64 `json:"self_ns"`
	// Ops is the operation count of a probe span, 0 elsewhere.
	Ops int64 `json:"ops,omitempty"`
}

// recorder keeps spans in memory until the benchmark ends. A nil recorder
// records nothing, which is how the timed pass runs.
type recorder struct {
	origin   time.Time
	workload string
	spans    []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// start opens a span under parent (0 for none) and returns its id.
func (r *recorder) start(parent int, name string) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Workload: r.workload,
		StartNs: time.Since(r.origin).Nanoseconds(),
	})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	s := &r.spans[id-1]
	s.EndNs = time.Since(r.origin).Nanoseconds()
	return time.Duration(s.EndNs - s.StartNs)
}

// setOps records how many operations a probe span covered.
func (r *recorder) setOps(id int, ops int64) {
	if r != nil {
		r.spans[id-1].Ops = ops
	}
}

// write fills in self times and writes the spans as one JSON array.
func (r *recorder) write(path string) error {
	for i := range r.spans {
		r.spans[i].SelfNs = r.spans[i].EndNs - r.spans[i].StartNs
	}
	for _, s := range r.spans {
		if s.Parent > 0 {
			r.spans[s.Parent-1].SelfNs -= s.EndNs - s.StartNs
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
