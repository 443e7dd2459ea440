package bam

import (
	"encoding/binary"
	"fmt"
	"io"

	"parseq/internal/sam"
)

// BodySpan extracts the reference span of a BAM record body without a
// full decode — the index builder's, the regions' and the shard
// tallies' — refID, zero-based start, and zero-based exclusive end
// (start+1 for unmapped or CIGAR-less records, per samtools convention).
func BodySpan(body []byte) (refID int32, beg, end int) {
	refID = int32(binary.LittleEndian.Uint32(body[0:]))
	beg = int(int32(binary.LittleEndian.Uint32(body[4:])))
	nameLen := int(body[8])
	nCigar := int(binary.LittleEndian.Uint16(body[12:]))
	refLen := 0
	off := 32 + nameLen
	for i := 0; i < nCigar && off+4*i+4 <= len(body); i++ { // a garbled count reads no further
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
		refID, beg, end := BodySpan(body)
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

// RegionReader iterates the records of an indexed BAM file that overlap
// one zero-based half-open reference interval, in file order: the
// reader's own cursor spanned over each chunk the index names in turn,
// Seek to the chunk's start with its end as the piece's.
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
	chunks      []Chunk // those after the one the cursor spans
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
	rr := &RegionReader{
		br:     br,
		chunks: idx.Query(refID, beg, end),
		refID:  int32(refID),
		beg:    beg,
		end:    end,
	}
	rr.err = rr.nextChunk()
	return rr, nil
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

// nextChunk spans the cursor over the next chunk, io.EOF after the last.
func (rr *RegionReader) nextChunk() error {
	if len(rr.chunks) == 0 {
		return io.EOF
	}
	c := rr.chunks[0]
	rr.chunks = rr.chunks[1:]
	if err := rr.br.Seek(c.Beg); err != nil {
		return offGrid(c.Beg, err)
	}
	NewPieceScanner(rr.br, c.End)
	return nil
}

// NextBody returns the next in-region record's encoded body without
// decoding it — the zero-allocation path under the shard tallies. The
// slice aliases the reader's block or carry buffer and is valid only
// until the next call. Returns io.EOF when exhausted.
func (rr *RegionReader) NextBody() ([]byte, error) {
	for rr.err == nil {
		body, err := rr.br.ReadBody()
		if err != nil {
			if rr.err = err; err == io.EOF {
				rr.err = rr.nextChunk()
			}
			continue
		}
		refID, beg, end := BodySpan(body)
		switch {
		case refID > rr.refID || refID == rr.refID && beg >= rr.end:
			// Sorted input: nothing later in the chunk can overlap.
			rr.err = rr.nextChunk()
		case refID == rr.refID && (rr.startWithin && beg >= rr.beg || !rr.startWithin && end > rr.beg):
			return body, nil
		}
	}
	return nil, rr.err
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
