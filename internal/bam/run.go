package bam

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// readFrame reads one record framed as in a BAM stream — an int32
// block_size, then the body — into buf's storage and returns it, prefix
// included. An end before the first byte is io.EOF; a short record or a
// block_size under the 32-byte fixed section is ErrInvalidRecord. The
// buffer grows with the bytes read, so a garbled block_size costs at
// most 64 KiB or twice the bytes the stream holds, not what it claims.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], 4)[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: truncated record size", ErrInvalidRecord)
		}
		return buf, err
	}
	size := int(int32(binary.LittleEndian.Uint32(buf)))
	if size < 32 {
		return buf, fmt.Errorf("%w: block_size %d", ErrInvalidRecord, size)
	}
	for len(buf) < 4+size {
		n := min(4+size-len(buf), max(len(buf), 64<<10))
		buf = slices.Grow(buf, n)
		m, err := io.ReadFull(r, buf[len(buf):len(buf)+n])
		if buf = buf[:len(buf)+m]; err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, fmt.Errorf("%w: truncated record body: %w", ErrInvalidRecord, err)
		}
	}
	return buf, nil
}

// RunReader reads a run: n records encoded by EncodeRecord laid end to
// end, with no codec, in a private temporary file — the sorter's spill
// runs and the SAM preprocessor's per-rank spill.
type RunReader struct {
	r       *bufio.Reader
	n, read int64
	rec     []byte
}

// NewRunReader reads the n records of the run r.
func NewRunReader(r io.Reader, n int64) *RunReader {
	return &RunReader{r: bufio.NewReaderSize(r, 64<<10), n: n}
}

// Next returns the next record, block_size prefix included, valid until
// the next call, and io.EOF once all n are read. A run that ends early
// is an error even at a record boundary (wrapping io.ErrUnexpectedEOF),
// so a short file never passes for a whole run.
func (rr *RunReader) Next() ([]byte, error) {
	if rr.read == rr.n {
		return nil, io.EOF
	}
	var err error
	if rr.rec, err = readFrame(rr.r, rr.rec); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("bam: run ends after %d of %d records: %w", rr.read, rr.n, err)
	}
	rr.read++
	return rr.rec, nil
}

// NextBody is Next without the block_size prefix.
func (rr *RunReader) NextBody() ([]byte, error) {
	rec, err := rr.Next()
	if err != nil {
		return nil, err
	}
	return rec[4:], nil
}
