package sam

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// Reader streams a SAM file: it consumes the header lines eagerly and
// then yields one Record per alignment line.
type Reader struct {
	br     *bufio.Reader
	header *Header
	line   int   // 1-based line number for error reporting
	off    int64 // bytes of the stream consumed by completed lines
	err    error
}

// readerBufSize matches the converter's read-buffer granularity.
const readerBufSize = 256 << 10

// NewReader wraps r and parses the header section.
func NewReader(r io.Reader) (*Reader, error) {
	sr := &Reader{br: bufio.NewReaderSize(r, readerBufSize), header: NewHeader()}
	for {
		peek, err := sr.br.Peek(1)
		if err == io.EOF {
			return sr, nil
		}
		if err != nil {
			return nil, err
		}
		if peek[0] != '@' {
			return sr, nil
		}
		line, err := sr.readLine()
		if err != nil {
			return nil, err
		}
		if err := sr.header.ParseHeaderLine(string(line)); err != nil {
			return nil, fmt.Errorf("line %d: %w", sr.line, err)
		}
	}
}

// Header returns the parsed header.
func (sr *Reader) Header() *Header { return sr.header }

// readLine reads one line without the trailing newline (and without a
// trailing carriage return, tolerating CRLF input) into a fresh slice, so
// records parsed from it may keep aliasing it. A line of MaxLineBytes or
// more (before its newline) is refused with LineTooLongError as soon as
// the limit is reached, not read whole.
func (sr *Reader) readLine() ([]byte, error) {
	var line []byte
	for {
		frag, err := sr.br.ReadSlice('\n')
		line = append(line, frag...)
		if n := len(line); n >= MaxLineBytes && (n > MaxLineBytes || line[n-1] != '\n') {
			return nil, LineTooLongError(sr.off)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if len(line) == 0 && err != nil {
			return nil, err
		}
		break
	}
	sr.line++
	sr.off += int64(len(line))
	line = bytes.TrimSuffix(line, []byte{'\n'})
	line = bytes.TrimSuffix(line, []byte{'\r'})
	return line, nil
}

// Read returns the next alignment record. It returns io.EOF at the end of
// the stream.
func (sr *Reader) Read() (Record, error) {
	var rec Record
	err := sr.ReadInto(&rec)
	return rec, err
}

// ReadInto parses the next alignment into rec, reusing its storage where
// possible. It returns io.EOF at the end of the stream. Blank lines are
// skipped. Each line is a fresh slice that rec's fields alias, so a
// record read into a zero Record may be kept.
func (sr *Reader) ReadInto(rec *Record) error {
	if sr.err != nil {
		return sr.err
	}
	for {
		line, err := sr.readLine()
		if err != nil {
			sr.err = err
			return err
		}
		if len(line) == 0 {
			continue
		}
		if err := ParseRecordIntoBytes(rec, line); err != nil {
			sr.err = fmt.Errorf("line %d: %w", sr.line, err)
			return sr.err
		}
		return nil
	}
}

// ReadAll consumes the remaining records.
func (sr *Reader) ReadAll() ([]Record, error) {
	var recs []Record
	for {
		rec, err := sr.Read()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// Writer emits a SAM file: the header first (via NewWriter), then one
// line per record.
type Writer struct {
	bw   *bufio.Writer
	werr error
}

// NewWriter wraps w and writes the header section immediately.
func NewWriter(w io.Writer, h *Header) (*Writer, error) {
	sw := &Writer{bw: bufio.NewWriterSize(w, readerBufSize)}
	if h != nil {
		if _, err := sw.bw.WriteString(h.String()); err != nil {
			return nil, err
		}
	}
	return sw, nil
}

// Write emits one alignment line, rendered straight into the write
// buffer's free space.
func (sw *Writer) Write(rec *Record) error {
	if sw.werr != nil {
		return sw.werr
	}
	line := append(rec.AppendTo(sw.bw.AvailableBuffer()), '\n')
	if _, err := sw.bw.Write(line); err != nil {
		sw.werr = err
		return err
	}
	return nil
}

// Flush flushes buffered output.
func (sw *Writer) Flush() error {
	if sw.werr != nil {
		return sw.werr
	}
	return sw.bw.Flush()
}
