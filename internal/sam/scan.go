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
// CIGAR) hit it in practice. The header scan and the batch line engine
// allow lines up to this limit and report the offending line's file
// offset when it is exceeded. A var so tests can exercise the limit
// without half-gigabyte fixtures.
var MaxLineBytes = 512 << 20

// LineTooLongError is the shared over-limit error: the header scan and
// the batch line engine produce it with the same wording, so error
// parity holds across the converter at every worker count, the sorter
// and the SAM analyses.
func LineTooLongError(fileOff int64) error {
	return fmt.Errorf("sam: line starting at file offset %d exceeds the %d byte line limit: %w",
		fileOff, MaxLineBytes, bufio.ErrTooLong)
}

// lineError is how the batch line engine reports a record's parse or
// visit error: naming the line's file offset, wrapping the cause.
func lineError(fileOff int64, err error) error {
	return fmt.Errorf("sam: line at file offset %d: %w", fileOff, err)
}
