package obsv_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obsv"
	"repro/internal/protocol"
)

// wireEvent is the JSON shape of one event line, as the writer's reference
// (json.Marshal) and the reader's reference (json.Unmarshal) see it.
type wireEvent struct {
	Seq    uint64 `json:"seq"`
	Time   int64  `json:"t"`
	Proc   int    `json:"p"`
	Op     string `json:"op"`
	Msg    string `json:"msg,omitempty"`
	Block  int    `json:"blk"`
	Detail string `json:"detail,omitempty"`
}

// traceHeader is the header line of the committed fixtures.
const traceHeader = `{"schema":"shasta-trace","version":1}` + "\n"

// oldDecode is the event-line decoder ReadTrace used before it read lines
// itself: encoding/json into the wire shape, the processor range check, and
// the detail grammar. It is the oracle the scanner is held to.
func oldDecode(line []byte) (protocol.TraceEvent, error) {
	var we wireEvent
	if err := json.Unmarshal(line, &we); err != nil {
		return protocol.TraceEvent{}, err
	}
	if we.Proc < 0 || we.Proc >= protocol.MaxProcs {
		return protocol.TraceEvent{}, fmt.Errorf("processor %d", we.Proc)
	}
	e := protocol.TraceEvent{Seq: we.Seq, Time: we.Time, Proc: we.Proc, Op: we.Op, Msg: we.Msg,
		BaseLine: we.Block, Detail: we.Detail}
	e.DecodeDetail()
	return e, nil
}

// fixtureLines returns every committed trace fixture's lines, by file.
func fixtureLines(t testing.TB) map[string][][]byte {
	files, err := filepath.Glob("../../cmd/shastatrace/testdata/*.jsonl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no trace fixtures: %v", err)
	}
	out := map[string][][]byte{}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	}
	return out
}

// TestReadTraceMatchesOldDecoder: over every committed fixture, ReadTrace
// returns exactly the events the encoding/json decoder gave.
func TestReadTraceMatchesOldDecoder(t *testing.T) {
	for name, lines := range fixtureLines(t) {
		var want []protocol.TraceEvent
		for _, line := range lines[1:] {
			e, err := oldDecode(line)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want = append(want, e)
		}
		_, got, err := obsv.ReadTrace(bytes.NewReader(bytes.Join(lines, []byte("\n"))))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ReadTrace differs from the encoding/json decoder", name)
		}
	}
}

// TestReadTraceAllocsPerEvent pins the reader's allocations: after op and
// msg are interned, the verbatim detail is the one allocation an event
// costs; the chunks, the join and the scanner's buffer amortize.
func TestReadTraceAllocsPerEvent(t *testing.T) {
	data, err := os.ReadFile("../../cmd/shastatrace/testdata/migrate.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	_, events, err := obsv.ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() { obsv.ReadTrace(bytes.NewReader(data)) })
	if per := allocs / float64(len(events)); per > 1.1 {
		t.Errorf("ReadTrace makes %.3f mallocs per event, budget 1.1", per)
	}
}

// FuzzReadTraceLine holds the hand-written event-line scanner to the
// encoding/json decoder it replaced: a line the scanner accepts, json
// accepts too and decodes to the same event; a line json rejects, the
// scanner rejects. Where json accepts and the scanner does not, the line
// must be one ReadTrace documents as rejected.
func FuzzReadTraceLine(f *testing.F) {
	for _, lines := range fixtureLines(f) {
		for _, line := range lines {
			f.Add(string(line))
		}
	}
	for _, s := range []string{"", "plain", `a<b>&"c"\d`, "tab\tnl\nbs\bff\fnul\x00del\x7f", "caf\u00e9 \u2028\u2029", "bad\xffutf8"} {
		var buf bytes.Buffer
		obsv.WriteEvent(&buf, protocol.TraceEvent{Seq: 1, Time: -5, Proc: 3, Op: s, Msg: s, BaseLine: -1, Detail: s})
		f.Add(strings.TrimSuffix(buf.String(), "\n"))
	}
	for _, s := range []string{
		`{"blk":-1,"op":"sync","p":0,"t":13,"seq":1,"detail":"barrier gen=0"}`,
		" \t{ \"seq\" : 1 ,\r\"t\":2, \"p\":3,\"op\":\"batch\",\"blk\":-1 , \"detail\" : \"2 blocks\" } ",
		`{"seq":1,"t":2,"p":3,"op":"batch","blk":-1,"extra":[1,2],"more":{"a":1}}`,
		`{"seq":1,"t":2,"p":3,"op":"batch","blk":-1,"extra":"x","n":1.5e-3,"b":true,"z":null}`,
		`{"seq":1,"t":2,"p":3,"op":"batch","op":"sync","blk":-1,"msg":null}`,
		`{"seq":1,"t":2,"p":3,"op":"sync","blk":-1,"detail":"barrier gen=1"}`,
		`{"SEQ":1,"t":2,"p":3,"op":"batch","blk":-1}`,
		`{"seq":1,"t":2,"p":3,"op":"batch","blk":-1,"ſeq":2}`,
		`{"seq":01,"t":2,"p":3,"op":"batch","blk":-1}`,
		`{"seq":1.5,"t":2,"p":3,"op":"batch","blk":-1}`,
		`{"seq":1e3,"t":2,"p":3,"op":"batch","blk":-1}`,
		`{"seq":-,"t":2,"p":3,"op":"batch","blk":-1}`,
		`{"seq":-1,"t":-0,"p":3,"op":"batch","blk":-1}`,
		`{"seq":18446744073709551616,"t":2,"p":3,"op":"batch","blk":-1}`,
		`{"seq":18446744073709551615,"t":9223372036854775808,"p":3,"op":"batch","blk":-1}`,
		`{"seq":1,"t":-9223372036854775809,"p":3,"op":"batch","blk":-1}`,
		`{"seq":1,"t":2,"p":4096,"op":"batch","blk":-1}`,
		`{"seq":"1","t":2,"p":3,"op":7,"blk":-1}`,
		`{"seq":1,"t":2,"p":3,"op":"batch","blk":-1}x`,
		`{"seq":1,"t":2,"p":3,"op":"batch","blk":-1,}`,
		`{"schema":"shasta-trace","version":1}`,
		`{}`, `null`, `[]`, `"seq"`, `{"seq":1`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		// ReadTrace splits lines, drops a line's final carriage return and
		// skips blank lines; hold it to the oracle on the line it decodes.
		decoded := strings.TrimSuffix(line, "\r")
		if decoded == "" || strings.Contains(line, "\n") {
			return
		}
		want, werr := oldDecode([]byte(decoded))
		_, got, err := obsv.ReadTrace(strings.NewReader(traceHeader + line + "\n"))
		switch {
		case err == nil && werr != nil:
			t.Fatalf("%q: scanner accepts, encoding/json rejects: %v", line, werr)
		case err == nil && (len(got) != 1 || !reflect.DeepEqual(got[0], want)):
			t.Fatalf("%q: scanner reads %+v, encoding/json %+v", line, got, want)
		case err != nil && werr == nil && !documentedReject(line):
			t.Fatalf("%q: scanner rejects (%v), encoding/json accepts", line, err)
		}
	})
}

// documentedReject reports whether a line encoding/json accepts is one
// ReadTrace's documentation says it rejects: no value for one of the five
// keys every event carries, a header, a key json matches to a field only
// case-insensitively, or an unknown key holding an object or array.
func documentedReject(line string) bool {
	var m map[string]json.RawMessage
	if json.Unmarshal([]byte(line), &m) != nil || m == nil {
		return true
	}
	if _, ok := m["schema"]; ok {
		return true
	}
	for _, k := range []string{"seq", "t", "p", "op", "blk"} {
		if v, ok := m[k]; !ok || string(v) == "null" {
			return true
		}
	}
	for k, v := range m {
		switch k {
		case "seq", "t", "p", "op", "msg", "blk", "detail":
			continue
		}
		if v[0] == '{' || v[0] == '[' {
			return true
		}
		// Let encoding/json say whether it takes k for a field: its
		// case-insensitive match of k to these names is the one to the tags.
		type fields struct{ Seq, T, P, Op, Msg, Blk, Detail any }
		var w fields
		b, _ := json.Marshal(map[string]int{k: 0})
		if json.Unmarshal(b, &w) == nil && w != (fields{}) {
			return true
		}
	}
	return false
}
