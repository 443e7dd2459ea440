package bamx

import (
	"fmt"
	"io"

	"parseq/internal/bam"
	"parseq/internal/sam"
)

// Scanner streams a contiguous range of BAMX records with large chunked
// reads, so the per-record cost is a decode, not a syscall. This is the
// read path of the parallel conversion phase: each rank scans its
// partition's record range.
type Scanner struct {
	f        *File
	next, hi int64
	stride   int
	buf      []byte // chunk of whole records
	off      int    // read position within buf
	body     []byte // reusable unpadded-record scratch
	err      error
}

// scanChunkBytes is the chunk size target; it is rounded down to a whole
// number of records.
const scanChunkBytes = 1 << 20

// Scan returns a Scanner over records [lo, hi).
func (f *File) Scan(lo, hi int64) *Scanner {
	if lo < 0 {
		lo = 0
	}
	if hi > f.count {
		hi = f.count
	}
	stride := f.caps.Stride()
	perChunk := scanChunkBytes / stride
	if perChunk < 1 {
		perChunk = 1
	}
	return &Scanner{
		f:      f,
		next:   lo,
		hi:     hi,
		stride: stride,
		buf:    make([]byte, 0, perChunk*stride),
	}
}

// NextBody returns the next record's contiguous BAM body (without the
// block_size prefix) without decoding it, or io.EOF at the end of the
// range — the zero-decode path container-to-container conversions use.
// The slice is valid until the next call.
func (s *Scanner) NextBody() ([]byte, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.off == len(s.buf) {
		if s.next >= s.hi {
			return nil, io.EOF
		}
		n := int64(cap(s.buf) / s.stride)
		if s.next+n > s.hi {
			n = s.hi - s.next
		}
		s.buf = s.buf[:n*int64(s.stride)]
		offset := s.f.dataStart + s.next*int64(s.stride)
		if _, err := s.f.r.ReadAt(s.buf, offset); err != nil && err != io.EOF {
			s.err = fmt.Errorf("bamx: scan read at record %d: %w", s.next, err)
			return nil, s.err
		}
		s.next += n
		s.off = 0
	}
	raw := s.buf[s.off : s.off+s.stride]
	s.off += s.stride
	var err error
	s.body, err = unpadRecord(s.body[:0], raw, s.f.caps)
	if err != nil {
		s.err = err
		return nil, err
	}
	return s.body, nil
}

// Next decodes the next record into rec, reporting false at the end of
// the range.
func (s *Scanner) Next(rec *sam.Record) (bool, error) {
	body, err := s.NextBody()
	if err == io.EOF {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if err := bam.DecodeRecord(body, rec, s.f.header); err != nil {
		s.err = err
		return false, err
	}
	return true, nil
}

// DecodeInto converts the raw fixed-stride bytes of one record into rec,
// reusing body as scratch; it returns the (possibly grown) scratch for
// the next call. It is the allocation-light path for non-contiguous
// access (region entries).
func (f *File) DecodeInto(raw, body []byte, rec *sam.Record) ([]byte, error) {
	body, err := unpadRecord(body[:0], raw, f.caps)
	if err != nil {
		return body, err
	}
	return body, bam.DecodeRecord(body, rec, f.header)
}
