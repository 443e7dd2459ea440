package bamx

import (
	"bufio"
	"io"

	"parseq/internal/bam"
	"parseq/internal/sam"
)

// BuildFromRecords writes a BAMX file plus BAIX index for in-memory
// records. Each record is encoded twice, into one reused buffer: once to
// measure the caps, once to be padded.
func BuildFromRecords(w io.Writer, h *sam.Header, recs []sam.Record) (*Index, error) {
	var caps Caps
	var rec []byte
	for i := range recs {
		var err error
		if rec, err = bam.EncodeRecord(rec[:0], &recs[i], h); err != nil {
			return nil, err
		}
		if err := caps.Observe(rec[4:]); err != nil {
			return nil, err
		}
	}
	i := 0
	return WriteBodies(w, h, caps, func() ([]byte, error) {
		if i == len(recs) {
			return nil, io.EOF
		}
		rec, _ = bam.EncodeRecord(rec[:0], &recs[i], h) // the first pass proved it encodes
		i++
		return rec[4:], nil
	})
}

// WriteBodies is the one writer of padded records: it writes a BAMX
// file of the BAM-encoded bodies (no block_size prefix) next yields
// until io.EOF, and returns the BAIX index, built from each body's
// refID and position. caps are the bodies' measured maxima — measured
// in a pass of their own, since the stride precedes the first record
// (shard.Create's BAMX sink measures them as it spills) — and are raised
// to the floor every BAMX file keeps: room for the "*" read name and one
// base.
func WriteBodies(w io.Writer, h *sam.Header, caps Caps, next func() ([]byte, error)) (*Index, error) {
	caps.QName = max(caps.QName, 2)
	caps.Seq = max(caps.Seq, 1)
	out := bufio.NewWriterSize(w, 256<<10) // batches the stride-sized writes
	bw, err := NewWriter(out, h, caps)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	for {
		body, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := bw.WriteEncoded(body); err != nil {
			return nil, err
		}
		entries = appendEntry(entries, body, bw.Count()-1) // the body checked as it was padded
	}
	if err := out.Flush(); err != nil {
		return nil, err
	}
	return NewIndex(entries), nil
}

// BuildIndex scans an existing BAMX file and reconstructs its BAIX index,
// for when the sidecar index is missing.
func BuildIndex(f *File) (*Index, error) {
	var entries []Entry
	sc := f.Scan(0, f.NumRecords())
	for i := int64(0); ; i++ {
		raw, err := sc.NextRaw()
		if err == io.EOF {
			return NewIndex(entries), nil
		}
		if err != nil {
			return nil, err
		}
		entries = appendEntry(entries, raw, i)
	}
}
