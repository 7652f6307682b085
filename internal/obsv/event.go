package obsv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"
	"unicode"

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
// json.Marshal of the wire shape plus a newline would be: the wireKeys in
// the order seq, t, p, op, msg, blk, detail, as the integer or string each
// names, msg and detail omitted when empty. This is where a simulator
// event's detail becomes text.
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
//
// An event line is a JSON object read as encoding/json would read it into
// the wire shape — keys in any order, JSON whitespace between tokens,
// escapes in strings, the last of a repeated key winning, null leaving a
// field as it was, unknown keys skipped — except that it is rejected when
// it does not carry a seq, t, p, op and blk value (appendEvent writes all
// five), when it is a header (a "schema" key: rotated segments are separate
// files, not one stream), when a key matches a field only case-insensitively,
// and when an unknown key holds an object or an array.
func ReadTrace(r io.Reader) (Header, []protocol.TraceEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var h Header
	var full [][]protocol.TraceEvent
	chunk := make([]protocol.TraceEvent, 0, readChunk)
	d := eventDecoder{names: map[string]string{}}
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
		if len(chunk) == cap(chunk) {
			full = append(full, chunk)
			chunk = make([]protocol.TraceEvent, 0, readChunk)
		}
		chunk = append(chunk, protocol.TraceEvent{})
		e := &chunk[len(chunk)-1]
		if err := d.decode(b, e); err != nil {
			return h, nil, fmt.Errorf("obsv: line %d: bad trace event: %w", line, err)
		}
		if e.Proc < 0 || e.Proc >= protocol.MaxProcs {
			// The analysers index per-processor tables by it.
			return h, nil, fmt.Errorf("obsv: line %d: processor %d outside 0..%d", line, e.Proc, protocol.MaxProcs-1)
		}
		e.DecodeDetail()
	}
	if err := sc.Err(); err != nil {
		return h, nil, fmt.Errorf("obsv: line %d: %w", line+1, err)
	}
	if !sawHeader {
		return h, nil, fmt.Errorf("obsv: empty trace (no header line)")
	}
	return h, slices.Concat(append(full, chunk)...), nil
}

// wireKeys are the keys of the stable JSON shape of one trace event, by
// field; the table is only read. They are part of the versioned schema (see
// protocol.TraceSchemaVersion and OBSERVABILITY.md); changing or removing
// one requires a version bump. Bit f of decode's tally records field f.
var wireKeys = [...]string{fSeq: "seq", fTime: "t", fProc: "p", fBlock: "blk", fOp: "op", fMsg: "msg", fDetail: "detail"}

// The fields of an event line: integers before fOp, strings from it on.
const (
	fSeq = iota
	fTime
	fProc
	fBlock
	fOp
	fMsg
	fDetail
	keysRequired = 1<<fSeq | 1<<fTime | 1<<fProc | 1<<fBlock | 1<<fOp // appendEvent writes them all
)

// eventDecoder reads event lines, the fixed flat wire shape, by hand; one
// serves one ReadTrace call. Numbers go to strconv as encoding/json sends
// them there; a string token holding an escape or a byte outside printable
// ASCII goes to encoding/json itself, so escaping and UTF-8 handling cannot
// drift from it.
type eventDecoder struct {
	names map[string]string // op and msg values, interned
	b     []byte            // the line
	i     int               // read position in b
}

// decode reads one event line into e, which must be zero.
func (d *eventDecoder) decode(line []byte, e *protocol.TraceEvent) error {
	d.b, d.i = line, 0
	if !d.next('{') {
		return d.syntax("expected '{'")
	}
	have, header := 0, false
	for sep := false; !d.next('}'); sep = true {
		if sep && !d.next(',') {
			return d.syntax("expected ',' or '}'")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if !d.next(':') {
			return d.syntax("expected ':'")
		}
		kind, tok, err := d.value()
		if err != nil {
			return err
		}
		f := slices.Index(wireKeys[:], string(key))
		if f < 0 {
			// An unknown key: its value was read and is dropped.
			header = header || string(key) == "schema"
			for _, k := range wireKeys {
				if foldsTo(key, k) {
					return fmt.Errorf("key %q is %q only case-insensitively", key, k)
				}
			}
			continue
		}
		if kind == 'n' {
			continue // null leaves the field as it was, as with encoding/json
		}
		want := byte('0')
		if f >= fOp {
			want = '"'
		}
		if kind != want {
			return fmt.Errorf("%q: wrong type of value", key)
		}
		// A repeated key is taken again: the last value wins.
		switch f {
		case fSeq:
			e.Seq, err = strconv.ParseUint(string(tok), 10, 64)
		case fTime:
			e.Time, err = strconv.ParseInt(string(tok), 10, 64)
		case fProc:
			e.Proc, err = atoi(tok)
		case fBlock:
			e.BaseLine, err = atoi(tok)
		case fOp:
			e.Op = d.intern(tok)
		case fMsg:
			e.Msg = d.intern(tok)
		case fDetail:
			e.Detail = string(tok)
		}
		if err != nil {
			return fmt.Errorf("%q: %w", key, err)
		}
		have |= 1 << f
	}
	if d.space(); d.i != len(d.b) {
		return d.syntax("data after the object")
	}
	if header {
		return fmt.Errorf("a trace header inside the trace: pass each segment as a separate file")
	}
	if missing := keysRequired &^ have; missing != 0 {
		return fmt.Errorf("no %q key", wireKeys[bits.TrailingZeros(uint(missing))])
	}
	return nil
}

// foldsTo reports whether encoding/json would take key for the lower-case
// ASCII name by its case-insensitive match: rune by rune, equal under
// unicode.ToUpper(unicode.ToLower(r)).
func foldsTo(key []byte, name string) bool {
	for _, r := range string(key) {
		if name == "" || unicode.ToUpper(unicode.ToLower(r)) != unicode.ToUpper(rune(name[0])) {
			return false
		}
		name = name[1:]
	}
	return name == ""
}

// atoi converts an integer literal for an int field, as encoding/json does.
func atoi(tok []byte) (int, error) {
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	return int(v), err
}

// intern returns s as a string, one allocation per distinct value.
func (d *eventDecoder) intern(s []byte) string {
	if v, ok := d.names[string(s)]; ok {
		return v
	}
	v := string(s)
	d.names[v] = v
	return v
}

// space skips JSON whitespace.
func (d *eventDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// next skips whitespace and then c, reporting whether c was there.
func (d *eventDecoder) next(c byte) bool {
	d.space()
	return d.skip(c)
}

// syntax reports what the line lacks at the read position.
func (d *eventDecoder) syntax(what string) error {
	return fmt.Errorf("%s at column %d", what, d.i+1)
}

// value reads one value after whitespace. Its kind is '"' for a string,
// with tok its contents; '0' for a number, with tok its literal; or the
// first letter of true, false or null. Objects and arrays are not read.
func (d *eventDecoder) value() (kind byte, tok []byte, err error) {
	if d.space(); d.i == len(d.b) {
		return 0, nil, d.syntax("expected a value")
	}
	switch c := d.b[d.i]; {
	case c == '"':
		tok, err = d.str()
		return c, tok, err
	case c == '-' || '0' <= c && c <= '9':
		tok, err = d.num()
		return '0', tok, err
	case c == '{' || c == '[':
		return 0, nil, d.syntax("an object or array value")
	}
	for _, lit := range [...]string{"true", "false", "null"} {
		if end := d.i + len(lit); end <= len(d.b) && string(d.b[d.i:end]) == lit {
			d.i = end
			return lit[0], nil, nil
		}
	}
	return 0, nil, d.syntax("expected a value")
}

// str reads a string token after whitespace and returns its contents. A
// token of printable ASCII without a backslash is returned as a slice of
// the line; any other is decoded by encoding/json.
func (d *eventDecoder) str() ([]byte, error) {
	if !d.next('"') {
		return nil, d.syntax("expected a string")
	}
	start, plain := d.i, true
	for ; d.i < len(d.b); d.i++ {
		c := d.b[d.i]
		if ' ' <= c && c <= '~' && c != '"' && c != '\\' {
			continue // printable ASCII, the common case
		}
		switch {
		case c == '"':
			d.i++
			if plain {
				return d.b[start : d.i-1], nil
			}
			var s string
			if err := json.Unmarshal(d.b[start-1:d.i], &s); err != nil {
				return nil, fmt.Errorf("string at column %d: %w", start, err)
			}
			return []byte(s), nil
		case c == '\\':
			plain = false
			d.i++ // the escaped byte cannot end the token
		default: // a control character, or a byte outside ASCII
			plain = false
		}
	}
	return nil, d.syntax("unterminated string")
}

// num reads a number token by JSON's grammar and returns its literal.
func (d *eventDecoder) num() ([]byte, error) {
	start := d.i
	d.skip('-')
	if !d.skip('0') && d.digits() == 0 {
		return nil, d.syntax("bad number")
	}
	if d.skip('.') && d.digits() == 0 {
		return nil, d.syntax("bad number")
	}
	if d.skip('e') || d.skip('E') {
		if !d.skip('+') {
			d.skip('-')
		}
		if d.digits() == 0 {
			return nil, d.syntax("bad number")
		}
	}
	return d.b[start:d.i], nil
}

// skip consumes c if it is next, reporting whether it was.
func (d *eventDecoder) skip(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// digits consumes decimal digits and returns how many.
func (d *eventDecoder) digits() int {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}
