package sam

import (
	"bufio"
	"io"
)

// writerBufSize matches the converter's read-buffer granularity.
const writerBufSize = 256 << 10

// Writer emits a SAM file: the header first (via NewWriter), then one
// line per record.
type Writer struct {
	bw   *bufio.Writer
	werr error
}

// NewWriter wraps w and writes the header section immediately.
func NewWriter(w io.Writer, h *Header) (*Writer, error) {
	sw := &Writer{bw: bufio.NewWriterSize(w, writerBufSize)}
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
