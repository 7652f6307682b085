package obsv

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/protocol"
)

// SinkOptions configure a JSONLSink.
type SinkOptions struct {
	// MaxEventsPerFile rotates to a new segment after this many events;
	// 0 disables rotation. Each segment begins with its own header line,
	// so segments are independently valid trace files.
	MaxEventsPerFile int
	// BufferBytes sizes the write buffer (default 64 KiB).
	BufferBytes int
}

// JSONLSink is a buffered protocol.Tracer that streams events to JSONL
// trace files, rotating segments when configured. Errors are sticky: the
// first write error stops further output and is reported by Close and Err
// (a Tracer cannot return errors mid-run).
type JSONLSink struct {
	opts  SinkOptions
	path  string
	files []string

	f   *os.File
	bw  *bufio.Writer
	w   io.Writer // non-file mode: write here, no rotation
	n   int       // events in the current segment
	err error
}

// NewJSONLSink creates a sink writing to path. With rotation enabled, the
// first segment is path itself and later segments insert a counter before
// the extension (trace.jsonl, trace.1.jsonl, trace.2.jsonl, ...).
func NewJSONLSink(path string, opts SinkOptions) (*JSONLSink, error) {
	s := &JSONLSink{opts: opts, path: path}
	if err := s.open(path); err != nil {
		return nil, err
	}
	return s, nil
}

// NewJSONLWriterSink creates a sink streaming to an io.Writer (no file
// handling, no rotation), mainly for tests and in-memory pipelines. The
// header is written immediately.
func NewJSONLWriterSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: w}
	s.bw = bufio.NewWriterSize(w, s.bufferSize())
	s.err = WriteHeader(s.bw)
	return s
}

func (s *JSONLSink) bufferSize() int {
	if s.opts.BufferBytes > 0 {
		return s.opts.BufferBytes
	}
	return 64 * 1024
}

// open starts a new segment file.
func (s *JSONLSink) open(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	s.f = f
	s.bw = bufio.NewWriterSize(f, s.bufferSize())
	s.files = append(s.files, path)
	s.n = 0
	return WriteHeader(s.bw)
}

// segmentPath returns the path of segment i (0 is the configured path).
func (s *JSONLSink) segmentPath(i int) string {
	if i == 0 {
		return s.path
	}
	ext := filepath.Ext(s.path)
	base := strings.TrimSuffix(s.path, ext)
	return fmt.Sprintf("%s.%d%s", base, i, ext)
}

// closeSegment flushes and closes the current segment file.
func (s *JSONLSink) closeSegment() error {
	err := s.bw.Flush()
	if s.f != nil {
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.f = nil
	}
	return err
}

// Event implements protocol.Tracer.
func (s *JSONLSink) Event(e protocol.TraceEvent) {
	if s.err != nil {
		return
	}
	if s.f != nil && s.opts.MaxEventsPerFile > 0 && s.n >= s.opts.MaxEventsPerFile {
		if s.err = s.closeSegment(); s.err != nil {
			return
		}
		if s.err = s.open(s.segmentPath(len(s.files))); s.err != nil {
			return
		}
	}
	_, s.err = s.bw.Write(appendEvent(s.bw.AvailableBuffer(), &e))
	s.n++
}

// Err returns the sink's sticky error, if any.
func (s *JSONLSink) Err() error { return s.err }

// Files returns the segment paths written so far, in order (empty in
// writer mode).
func (s *JSONLSink) Files() []string {
	return append([]string(nil), s.files...)
}

// Close flushes buffers and closes the current segment. It returns the
// sink's sticky error if one occurred earlier.
func (s *JSONLSink) Close() error {
	var err error
	if s.f != nil {
		err = s.closeSegment()
	} else if s.bw != nil {
		err = s.bw.Flush()
	}
	if s.err != nil {
		return s.err
	}
	s.err = fmt.Errorf("obsv: sink closed")
	return err
}
