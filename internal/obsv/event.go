package obsv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/protocol"
)

// TraceSchema names the JSONL trace format in file headers.
const TraceSchema = "shasta-trace"

// Header is the first line of every trace file (and of every rotated
// segment). Readers reject files whose schema name differs or whose version
// is newer than the reader understands.
type Header struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
}

// NewHeader returns the header for traces written by this build.
func NewHeader() Header {
	return Header{Schema: TraceSchema, Version: protocol.TraceSchemaVersion}
}

// wireEvent is the stable JSON shape of one trace event. Field names are
// part of the versioned schema (see protocol.TraceSchemaVersion and
// OBSERVABILITY.md); changing or removing one requires a version bump.
type wireEvent struct {
	Seq    uint64 `json:"seq"`
	Time   int64  `json:"t"`
	Proc   int    `json:"p"`
	Op     string `json:"op"`
	Msg    string `json:"msg,omitempty"`
	Block  int    `json:"blk"`
	Detail string `json:"detail,omitempty"`
}

// WriteHeader writes a trace file header line.
func WriteHeader(w io.Writer) error {
	b, err := json.Marshal(NewHeader())
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteEvent writes one event as a JSONL line.
func WriteEvent(w io.Writer, e protocol.TraceEvent) error {
	_, err := w.Write(appendEvent(nil, &e))
	return err
}

// appendEvent appends the event's JSONL line to b, byte for byte what
// json.Marshal of its wireEvent plus a newline would be. This is where a
// simulator event's detail becomes text.
func appendEvent(b []byte, e *protocol.TraceEvent) []byte {
	b = strconv.AppendUint(append(b, `{"seq":`...), e.Seq, 10)
	b = strconv.AppendInt(append(b, `,"t":`...), e.Time, 10)
	b = strconv.AppendInt(append(b, `,"p":`...), int64(e.Proc), 10)
	b = appendJSONString(append(b, `,"op":`...), e.Op)
	if e.Msg != "" {
		b = appendJSONString(append(b, `,"msg":`...), e.Msg)
	}
	b = strconv.AppendInt(append(b, `,"blk":`...), int64(e.BaseLine), 10)
	if e.Detail != "" {
		b = appendJSONString(append(b, `,"detail":`...), e.Detail)
	} else if n := len(b); e.Typed {
		// The detail grammar is plain ASCII: nothing in it needs escaping.
		const key = `,"detail":"`
		if b = e.AppendDetail(append(b, key...)); len(b) == n+len(key) {
			b = b[:n] // omitempty
		} else {
			b = append(b, '"')
		}
	}
	return append(b, '}', '\n')
}

// appendJSONString appends s as a JSON string literal. Plain printable
// ASCII is copied; anything encoding/json would escape is left to it, so the
// two never disagree.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// readChunk is how many events ReadTrace collects per allocation; the chunks
// are joined once at the end, so reading never regrows a slice.
const readChunk = 4096

// ReadTrace parses one JSONL trace stream: a header line followed by event
// lines. Blank lines are skipped. This is where detail text enters the
// process: each event's typed fields are decoded from it here, once.
func ReadTrace(r io.Reader) (Header, []protocol.TraceEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var h Header
	var full [][]protocol.TraceEvent
	chunk := make([]protocol.TraceEvent, 0, readChunk)
	sawHeader := false
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		if !sawHeader {
			if err := json.Unmarshal(b, &h); err != nil {
				return h, nil, fmt.Errorf("obsv: line %d: bad trace header: %w", line, err)
			}
			if h.Schema != TraceSchema {
				return h, nil, fmt.Errorf("obsv: not a %s file (schema %q)", TraceSchema, h.Schema)
			}
			if h.Version > protocol.TraceSchemaVersion {
				return h, nil, fmt.Errorf("obsv: trace version %d is newer than supported version %d",
					h.Version, protocol.TraceSchemaVersion)
			}
			sawHeader = true
			continue
		}
		var we wireEvent
		if err := json.Unmarshal(b, &we); err != nil {
			return h, nil, fmt.Errorf("obsv: line %d: bad trace event: %w", line, err)
		}
		if we.Proc < 0 || we.Proc >= protocol.MaxProcs {
			// The analysers index per-processor tables by it.
			return h, nil, fmt.Errorf("obsv: line %d: processor %d outside 0..%d", line, we.Proc, protocol.MaxProcs-1)
		}
		if len(chunk) == cap(chunk) {
			full = append(full, chunk)
			chunk = make([]protocol.TraceEvent, 0, readChunk)
		}
		chunk = append(chunk, protocol.TraceEvent{
			Seq: we.Seq, Time: we.Time, Proc: we.Proc, Op: we.Op, Msg: we.Msg,
			BaseLine: we.Block, Detail: we.Detail,
		})
		chunk[len(chunk)-1].DecodeDetail()
	}
	if err := sc.Err(); err != nil {
		return h, nil, err
	}
	if !sawHeader {
		return h, nil, fmt.Errorf("obsv: empty trace (no header line)")
	}
	return h, slices.Concat(append(full, chunk)...), nil
}
