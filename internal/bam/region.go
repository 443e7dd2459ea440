package bam

import (
	"encoding/binary"
	"fmt"
	"io"

	"parseq/internal/sam"
)

// bodySpan extracts the reference span of a BAM record body without a
// full decode: refID, zero-based start, and zero-based exclusive end
// (start+1 for unmapped or CIGAR-less records, per samtools convention).
func bodySpan(body []byte) (refID int32, beg, end int) {
	refID = int32(binary.LittleEndian.Uint32(body[0:]))
	beg = int(int32(binary.LittleEndian.Uint32(body[4:])))
	nameLen := int(body[8])
	nCigar := int(binary.LittleEndian.Uint16(body[12:]))
	refLen := 0
	off := 32 + nameLen
	for i := 0; i < nCigar; i++ {
		op := sam.CigarOp(binary.LittleEndian.Uint32(body[off+4*i:]))
		if op.Type().ConsumesReference() {
			refLen += op.Len()
		}
	}
	if refLen == 0 {
		refLen = 1
	}
	return refID, beg, beg + refLen
}

// BuildFileIndex scans a coordinate-sorted BAM stream and builds its BAI
// index. The stream is consumed; callers reopen or seek to read again.
func BuildFileIndex(r io.Reader) (*Index, error) {
	br, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	defer br.Close()
	idx := NewIndex(len(br.Header().Refs))
	lastRef, lastPos := int32(-1), -1
	for {
		chunkBeg := br.Offset()
		body, err := br.ReadBody()
		if err == io.EOF {
			return idx, nil
		}
		if err != nil {
			return nil, err
		}
		refID, beg, end := bodySpan(body)
		if refID >= 0 {
			if refID < lastRef || (refID == lastRef && beg < lastPos) {
				return nil, fmt.Errorf("bam: input not coordinate-sorted at %s:%d",
					br.Header().RefByID(int(refID)).Name, beg+1)
			}
			lastRef, lastPos = refID, beg
		}
		if err := idx.Add(int(refID), beg, end, chunkBeg, br.Offset()); err != nil {
			return nil, err
		}
	}
}

// BodySpan is bodySpan for callers outside the package (the shard
// provider's zero-decode tallies): refID, zero-based start, and
// zero-based exclusive end of an encoded record body.
func BodySpan(body []byte) (refID int32, beg, end int) {
	return bodySpan(body)
}

// RegionReader iterates the records of an indexed BAM file that overlap
// one zero-based half-open reference interval, in file order.
//
// Two membership modes exist. The default keeps every record whose span
// *overlaps* [beg, end) — the samtools-view contract, where a record
// straddling a boundary appears in both adjacent regions. The shard
// mode (NewShardRegionReader) keeps only records that *start* in
// [beg, end), so a partition of a reference into half-open intervals
// yields every record exactly once — the property region-parallel
// analysis needs to merge per-shard tallies without double counting.
type RegionReader struct {
	br          *Reader
	chunks      []Chunk
	chunk       int
	inChunk     bool
	refID       int32
	beg, end    int
	startWithin bool
	err         error
}

// NewRegionReader positions a reader over the records overlapping
// [beg, end) on refName. The reader's underlying stream must be seekable.
func NewRegionReader(br *Reader, idx *Index, refName string, beg, end int) (*RegionReader, error) {
	refID := br.Header().RefID(refName)
	if refID < 0 {
		return nil, fmt.Errorf("bam: reference %q not in header", refName)
	}
	return &RegionReader{
		br:     br,
		chunks: idx.Query(refID, beg, end),
		refID:  int32(refID),
		beg:    beg,
		end:    end,
	}, nil
}

// NewShardRegionReader is NewRegionReader in start-within mode: only
// records whose alignment starts in [beg, end) are returned, so
// adjacent shards never both claim a boundary-spanning record.
func NewShardRegionReader(br *Reader, idx *Index, refName string, beg, end int) (*RegionReader, error) {
	rr, err := NewRegionReader(br, idx, refName, beg, end)
	if err != nil {
		return nil, err
	}
	rr.startWithin = true
	return rr, nil
}

// Read returns the next overlapping record, or io.EOF.
func (rr *RegionReader) Read() (sam.Record, error) {
	var rec sam.Record
	err := rr.ReadInto(&rec)
	return rec, err
}

// NextBody returns the next in-region record's encoded body without
// decoding it — the zero-allocation path under CountRegion and the
// shard tallies. The slice aliases the reader's internal buffer and is
// valid only until the next call. Returns io.EOF when exhausted.
func (rr *RegionReader) NextBody() ([]byte, error) {
	if rr.err != nil {
		return nil, rr.err
	}
	for {
		if !rr.inChunk {
			if rr.chunk >= len(rr.chunks) {
				rr.err = io.EOF
				return nil, rr.err
			}
			if err := rr.br.Seek(rr.chunks[rr.chunk].Beg); err != nil {
				rr.err = err
				return nil, err
			}
			rr.inChunk = true
		}
		if rr.br.Offset() >= rr.chunks[rr.chunk].End {
			rr.chunk++
			rr.inChunk = false
			continue
		}
		body, err := rr.br.ReadBody()
		if err == io.EOF {
			rr.chunk++
			rr.inChunk = false
			continue
		}
		if err != nil {
			rr.err = err
			return nil, err
		}
		refID, beg, end := bodySpan(body)
		if refID != rr.refID {
			// Sorted input: past the reference means past the region.
			if refID > rr.refID {
				rr.chunk++
				rr.inChunk = false
			}
			continue
		}
		if beg >= rr.end {
			// Sorted within the reference: nothing later can overlap.
			rr.chunk++
			rr.inChunk = false
			continue
		}
		if rr.startWithin {
			if beg < rr.beg {
				continue
			}
		} else if end <= rr.beg {
			continue
		}
		return body, nil
	}
}

// ReadInto decodes the next overlapping record into rec, or returns
// io.EOF when the region is exhausted.
func (rr *RegionReader) ReadInto(rec *sam.Record) error {
	body, err := rr.NextBody()
	if err != nil {
		return err
	}
	if err := DecodeRecord(body, rec, rr.br.Header()); err != nil {
		rr.err = err
		return err
	}
	return nil
}

// CountRegion returns how many records overlap the region — the cheap
// index-backed census operation. It walks record bodies without
// decoding them, so the loop allocates nothing per record.
func CountRegion(br *Reader, idx *Index, refName string, beg, end int) (int, error) {
	rr, err := NewRegionReader(br, idx, refName, beg, end)
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		if _, err := rr.NextBody(); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, err
		}
		n++
	}
}

// UnmappedTailReader iterates the fully unmapped records a
// coordinate-sorted BAM file places after the last mapped alignment.
// Paired with a start-within partition of every reference, it completes
// an exactly-once cover of the file: placed records come from exactly
// one region shard, placeless ones (refID -1) from exactly one tail
// shard. Records still carrying a reference are filtered out, so chunk
// ends that round up into the tail's first block cannot double count.
type UnmappedTailReader struct {
	br  *Reader
	err error
}

// NewUnmappedTailReader positions br at the end of the last indexed
// chunk (the start of the record section when the index holds no mapped
// records) and returns the tail iterator.
func NewUnmappedTailReader(br *Reader, idx *Index) (*UnmappedTailReader, error) {
	off := idx.EndOffset()
	if off == 0 {
		off = br.DataStart()
	}
	if err := br.Seek(off); err != nil {
		return nil, err
	}
	return &UnmappedTailReader{br: br}, nil
}

// NextBody returns the next unmapped record's encoded body, or io.EOF.
// The slice aliases the reader's internal buffer and is valid only
// until the next call.
func (ur *UnmappedTailReader) NextBody() ([]byte, error) {
	if ur.err != nil {
		return nil, ur.err
	}
	for {
		body, err := ur.br.ReadBody()
		if err != nil {
			ur.err = err
			return nil, err
		}
		if refID := int32(binary.LittleEndian.Uint32(body[0:])); refID >= 0 {
			continue
		}
		return body, nil
	}
}

// WriteIndexFile builds and writes a .bai file for a BAM file opened via
// the given ReadSeeker, restoring the stream position afterwards.
func WriteIndexFile(rs io.ReadSeeker, w io.Writer) error {
	start, err := rs.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	idx, err := BuildFileIndex(rs)
	if err != nil {
		return err
	}
	if _, err := rs.Seek(start, io.SeekStart); err != nil {
		return err
	}
	_, err = idx.WriteTo(w)
	return err
}
