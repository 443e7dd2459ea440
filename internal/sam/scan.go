package sam

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// ScanHeader reads the header section of a SAM file from its start and
// returns the parsed header plus the byte offset where alignment data
// begins — the lower bound of every Algorithm 1 byte partition. A header
// line of MaxLineBytes or more is refused with LineTooLongError as soon
// as the limit is reached, not read whole.
func ScanHeader(f io.ReadSeeker) (*Header, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	h := NewHeader()
	br := bufio.NewReaderSize(f, 64<<10)
	var offset int64
	var line []byte
	for {
		peek, err := br.Peek(1)
		if err == io.EOF {
			return h, offset, nil
		}
		if err != nil {
			return nil, 0, err
		}
		if peek[0] != '@' {
			return h, offset, nil
		}
		line = line[:0]
		for {
			frag, err := br.ReadSlice('\n')
			line = append(line, frag...)
			if n := len(line); n >= MaxLineBytes && (n > MaxLineBytes || line[n-1] != '\n') {
				return nil, 0, LineTooLongError(offset)
			}
			if err == bufio.ErrBufferFull {
				continue
			}
			if err != nil && err != io.EOF {
				return nil, 0, err
			}
			break
		}
		offset += int64(len(line))
		trimmed := bytes.TrimSuffix(bytes.TrimSuffix(line, []byte{'\n'}), []byte{'\r'})
		if err := h.ParseHeaderLine(string(trimmed)); err != nil {
			return nil, 0, err
		}
	}
}

// MaxLineBytes caps one alignment line. bufio.Scanner's 4 MiB default
// silently capped lines and surfaced a bare "token too long"; long-read
// SAM (ONT ultralong alignments carry multi-megabyte SEQ/QUAL plus
// CIGAR) hit it in practice. Every line reader in the repository allows
// lines up to this limit and reports the offending line's file offset
// when it is exceeded. A var so tests can exercise the limit without
// half-gigabyte fixtures.
var MaxLineBytes = 512 << 20

// LineTooLongError is the shared over-limit error: every line reader
// produces it with the same wording, so error parity holds across the
// converter at every worker count, the sorter, the SAM analyses and the
// header scan.
func LineTooLongError(fileOff int64) error {
	return fmt.Errorf("sam: line starting at file offset %d exceeds the %d byte line limit: %w",
		fileOff, MaxLineBytes, bufio.ErrTooLong)
}

// LineError is how every SAM line reader reports a record's parse or
// encode error: naming the line's file offset, wrapping the cause.
func LineError(fileOff int64, err error) error {
	return fmt.Errorf("sam: line at file offset %d: %w", fileOff, err)
}

// LineScanner reads the lines of one byte range of a SAM file — a rank's
// Algorithm 1 partition — with the raised line limit and exact offset
// tracking, so the over-limit error reports where the offending line
// starts instead of a bare bufio.ErrTooLong.
type LineScanner struct {
	scan *bufio.Scanner
	pos  int64 // bytes advanced past completed lines
	base int64 // absolute file offset of the range
}

// NewLineScanner scans the n bytes of r starting at file offset start.
func NewLineScanner(r io.ReaderAt, start, n int64) *LineScanner {
	s := bufio.NewScanner(io.NewSectionReader(r, start, n))
	s.Buffer(make([]byte, 256<<10), MaxLineBytes)
	ls := &LineScanner{scan: s, base: start}
	s.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		ls.pos += int64(adv)
		return adv, tok, err
	})
	return ls
}

// ScanRecord parses the range's next non-blank line into rec, whose
// fields alias the line until the next call, and returns the line's file
// offset. A parse error is wrapped with LineError at that offset; the
// end of the range is io.EOF.
func (s *LineScanner) ScanRecord(rec *Record) (int64, error) {
	for {
		off := s.base + s.pos
		if !s.scan.Scan() {
			if err := s.Err(); err != nil {
				return off, err
			}
			return off, io.EOF
		}
		if line := s.scan.Bytes(); len(line) > 0 {
			if err := ParseRecordIntoBytes(rec, line); err != nil {
				return off, LineError(off, err)
			}
			return off, nil
		}
	}
}

// Scan advances to the next line, bufio.ScanLines-delimited.
func (s *LineScanner) Scan() bool { return s.scan.Scan() }

// Bytes returns the current line; the slice is valid until the next Scan.
func (s *LineScanner) Bytes() []byte { return s.scan.Bytes() }

// Pos returns the bytes of the range consumed so far.
func (s *LineScanner) Pos() int64 { return s.pos }

// Err is bufio.Scanner.Err with ErrTooLong wrapped: when the scanner
// gives up, every completed line has been advanced past, so base+pos is
// the file offset of the line that exceeded the limit.
func (s *LineScanner) Err() error {
	err := s.scan.Err()
	if err == bufio.ErrTooLong {
		return LineTooLongError(s.base + s.pos)
	}
	return err
}
