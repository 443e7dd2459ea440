package sam

import (
	"bufio"
	"fmt"
	"io"
)

// ScanHeader reads the header section of a SAM file from its start and
// returns the parsed header plus the byte offset where alignment data
// begins — the lower bound of every Algorithm 1 byte partition.
func ScanHeader(f io.ReadSeeker) (*Header, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	h := NewHeader()
	br := bufio.NewReaderSize(f, 64<<10)
	var offset int64
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
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return nil, 0, err
		}
		offset += int64(len(line))
		trimmed := line
		if n := len(trimmed); n > 0 && trimmed[n-1] == '\n' {
			trimmed = trimmed[:n-1]
		}
		if n := len(trimmed); n > 0 && trimmed[n-1] == '\r' {
			trimmed = trimmed[:n-1]
		}
		if perr := h.ParseHeaderLine(trimmed); perr != nil {
			return nil, 0, perr
		}
		if err == io.EOF {
			return h, offset, nil
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
// converter at every worker count, sam.Reader and the SAM analyses.
func LineTooLongError(fileOff int64) error {
	return fmt.Errorf("sam: line starting at file offset %d exceeds the %d byte line limit: %w",
		fileOff, MaxLineBytes, bufio.ErrTooLong)
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
