package bamx

import (
	"fmt"
	"io"

	"parseq/internal/bam"
	"parseq/internal/sam"
)

// Scanner streams BAMX records with large chunked reads, so the
// per-record cost is a decode, not a syscall. It is the one read path
// under every BAMX walk: a physical range (Scan: a rank's partition) or
// the records a BAIX entry slice points at, in entry order (ScanEntries:
// partial conversion, region shards). Physically adjacent entries
// coalesce into one read of up to scanChunkBytes; a non-adjacent entry
// starts a new read, so an unsorted file degrades to one read per
// record and stays correct.
type Scanner struct {
	f        *File
	entries  []Entry // ScanEntries walk; nil for a physical range
	next, hi int64   // cursor and end: physical records, or positions in entries
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
	return f.scanner(nil, max(lo, 0), min(hi, f.count))
}

// ScanEntries returns a Scanner over the records entries point at, in
// entry order.
func (f *File) ScanEntries(entries []Entry) *Scanner {
	return f.scanner(entries, 0, int64(len(entries)))
}

// scanner sizes the chunk to the walk, not a flat megabyte: a small
// shard or region holds only the records it will read.
func (f *File) scanner(entries []Entry, lo, hi int64) *Scanner {
	stride := f.caps.Stride()
	n := min(max(int64(scanChunkBytes/stride), 1), max(hi-lo, 0))
	return &Scanner{f: f, entries: entries, next: lo, hi: hi, stride: stride,
		buf: make([]byte, 0, n*int64(stride))}
}

// fill reads the next run of physically adjacent records into buf.
func (s *Scanner) fill() error {
	if s.next >= s.hi {
		return io.EOF
	}
	first, n := s.next, min(s.hi-s.next, int64(cap(s.buf)/s.stride))
	if s.entries != nil {
		first = s.entries[s.next].Index
		run := int64(1)
		for run < n && s.entries[s.next+run].Index == first+run {
			run++
		}
		n = run
	}
	if first < 0 || first >= s.f.count {
		return fmt.Errorf("bamx: record %d out of range [0, %d)", first, s.f.count)
	}
	// A run crossing end-of-data stops at it; the next fill reports the
	// first record past the end.
	n = min(n, s.f.count-first)
	s.buf = s.buf[:n*int64(s.stride)]
	if got, err := s.f.r.ReadAt(s.buf, s.f.dataStart+first*int64(s.stride)); got < len(s.buf) {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("bamx: scan read at record %d: %w", first, err)
	}
	s.next += n
	s.off = 0
	return nil
}

// NextRaw returns the next record's fixed-stride bytes, or io.EOF at
// the end of the walk. The slice aliases the chunk and is valid until
// the next call.
func (s *Scanner) NextRaw() ([]byte, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.off == len(s.buf) {
		if s.err = s.fill(); s.err != nil {
			return nil, s.err
		}
	}
	raw := s.buf[s.off : s.off+s.stride]
	s.off += s.stride
	return raw, nil
}

// NextBody returns the next record's contiguous BAM body (without the
// block_size prefix) without decoding it, or io.EOF at the end of the
// walk — the zero-decode path container-to-container conversions use.
// The slice is valid until the next call.
func (s *Scanner) NextBody() ([]byte, error) {
	raw, err := s.NextRaw()
	if err != nil {
		return nil, err
	}
	s.body, err = unpadRecord(s.body[:0], raw, s.f.caps)
	if err != nil {
		s.err = err
		return nil, err
	}
	return s.body, nil
}

// Next decodes the next record into rec, reporting false at the end of
// the walk.
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
// the next call.
func (f *File) DecodeInto(raw, body []byte, rec *sam.Record) ([]byte, error) {
	body, err := unpadRecord(body[:0], raw, f.caps)
	if err != nil {
		return body, err
	}
	return body, bam.DecodeRecord(body, rec, f.header)
}
