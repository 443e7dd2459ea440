package bam

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"parseq/internal/bgzf"
)

// baiMagic identifies a BAI index file.
var baiMagic = []byte{'B', 'A', 'I', 1}

// Chunk is a half-open range of virtual offsets holding candidate records.
type Chunk struct {
	Beg, End bgzf.VOffset
}

// refIndex is the per-reference part of a BAI: the binned chunk lists and
// the 16 kb-window linear index.
type refIndex struct {
	bins   map[uint32][]Chunk
	linear []bgzf.VOffset
}

// Index is a BAI index: for each reference, the chunks of the file that
// may contain alignments overlapping a queried region.
type Index struct {
	refs []refIndex
}

// NewIndex returns an empty index over nRefs references.
func NewIndex(nRefs int) *Index {
	idx := &Index{refs: make([]refIndex, nRefs)}
	for i := range idx.refs {
		idx.refs[i].bins = make(map[uint32][]Chunk)
	}
	return idx
}

// Add files an alignment spanning the zero-based half-open reference
// interval [beg, end) on refID, stored at virtual offsets [chunkBeg,
// chunkEnd). Unmapped records (refID < 0) are not indexed.
func (idx *Index) Add(refID, beg, end int, chunkBeg, chunkEnd bgzf.VOffset) error {
	if refID < 0 {
		return nil
	}
	if refID >= len(idx.refs) {
		return fmt.Errorf("%w: index Add refID %d out of range", ErrInvalidRecord, refID)
	}
	if end <= beg {
		end = beg + 1
	}
	ref := &idx.refs[refID]
	bin := uint32(reg2bin(beg, end))
	chunks := ref.bins[bin]
	// Merge with the previous chunk when contiguous — coordinate-sorted
	// input makes this the common case and keeps the index small.
	if n := len(chunks); n > 0 && chunks[n-1].End == chunkBeg {
		chunks[n-1].End = chunkEnd
	} else {
		chunks = append(chunks, Chunk{chunkBeg, chunkEnd})
	}
	ref.bins[bin] = chunks

	// Linear index: minimum offset of any alignment overlapping each
	// 16 kb window.
	for w := beg >> linearShift; w <= (end-1)>>linearShift; w++ {
		for len(ref.linear) <= w {
			ref.linear = append(ref.linear, 0)
		}
		if ref.linear[w] == 0 || chunkBeg < ref.linear[w] {
			ref.linear[w] = chunkBeg
		}
	}
	return nil
}

// Query returns the chunks that may contain alignments overlapping the
// zero-based half-open interval [beg, end) on refID, sorted and merged.
func (idx *Index) Query(refID, beg, end int) []Chunk {
	if refID < 0 || refID >= len(idx.refs) || end <= beg {
		return nil
	}
	ref := &idx.refs[refID]
	var minOffset bgzf.VOffset
	if w := beg >> linearShift; w < len(ref.linear) {
		minOffset = ref.linear[w]
	}
	var out []Chunk
	for _, bin := range reg2bins(nil, beg, end) {
		for _, c := range ref.bins[uint32(bin)] {
			if c.End > minOffset {
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Beg < out[j].Beg })
	merged := out[:0]
	for _, c := range out {
		// Merge overlapping chunks, and also chunks whose gap stays within
		// one compressed BGZF block: a "seek" there re-inflates the block
		// the reader already holds, so splitting the run buys nothing and
		// costs a full block decompression per extra chunk on wide queries.
		if n := len(merged); n > 0 && c.Beg.Block() <= merged[n-1].End.Block() {
			if c.End > merged[n-1].End {
				merged[n-1].End = c.End
			}
		} else {
			merged = append(merged, c)
		}
	}
	return merged
}

// RefSpan returns the lowest and highest virtual offsets of refID's
// indexed chunks — the compressed byte range holding the reference's
// alignments. ok is false when the reference has no indexed data.
func (idx *Index) RefSpan(refID int) (beg, end bgzf.VOffset, ok bool) {
	if refID < 0 || refID >= len(idx.refs) {
		return 0, 0, false
	}
	for _, chunks := range idx.refs[refID].bins {
		for _, c := range chunks {
			if !ok || c.Beg < beg {
				beg = c.Beg
			}
			if !ok || c.End > end {
				end = c.End
			}
			ok = true
		}
	}
	return beg, end, ok
}

// Cuts returns up to n-1 ascending record starts that cut the records
// from the one at from to the end of a file of size compressed bytes
// into n file-order pieces of about equal compressed bytes: for each
// share, the first linear-index entry in a block at or past it.
func (idx *Index) Cuts(from bgzf.VOffset, size int64, n int) []bgzf.VOffset {
	var starts, cuts []bgzf.VOffset
	for _, ref := range idx.refs {
		starts = append(starts, ref.linear...)
	}
	slices.Sort(starts)
	for k, last := 1, from; k < n; k++ {
		goal := bgzf.MakeVOffset(from.Block()+(size-from.Block())*int64(k)/int64(n), 0)
		if i, _ := slices.BinarySearch(starts, goal); i < len(starts) && starts[i] > last {
			last = starts[i]
			cuts = append(cuts, last)
		}
	}
	return cuts
}

// LinearWindowBases is the base width of one linear-index window: the
// granularity at which ByteSplits can cut a reference.
const LinearWindowBases = 1 << linearShift

// RefSlice is one contiguous piece of a reference produced by
// ByteSplits: a zero-based half-open base interval and the estimated
// compressed bytes of the alignments starting under it.
type RefSlice struct {
	Beg, End int
	Bytes    int64
}

// ByteSplits cuts refID's [0, refLen) into contiguous slices of roughly
// targetBytes estimated compressed bytes each, cutting only on
// linear-index window boundaries; a remainder under one BGZF member
// folds into the slice before it. The estimate derives from the linear
// index's per-window minimum offsets, so balance reflects the on-disk
// compressed distribution of alignments rather than base-pair width —
// a pileup hotspot splits fine, a desert collapses into one slice.
// Returns nil when the reference has no indexed data.
func (idx *Index) ByteSplits(refID, refLen int, targetBytes int64) []RefSlice {
	beg, end, ok := idx.RefSpan(refID)
	if !ok {
		return nil
	}
	lin := idx.refs[refID].linear
	// Estimated compressed byte offset at each window boundary w (for w
	// in [0, len(lin)]): the carry-forward of the windows' minimum block
	// offsets, clamped monotonic, closed by the reference's span end.
	offs := make([]int64, len(lin)+1)
	prev := beg.Block()
	for w, v := range lin {
		if v != 0 && v.Block() > prev {
			prev = v.Block()
		}
		offs[w] = prev
	}
	offs[len(lin)] = end.Block()
	if offs[len(lin)] < prev {
		offs[len(lin)] = prev
	}
	total := offs[len(lin)] - offs[0]
	if targetBytes < 1 || targetBytes > total {
		targetBytes = total
	}
	// The last slice must cover every base an alignment can start on.
	maxBase := refLen
	if lb := len(lin) << linearShift; lb > maxBase {
		maxBase = lb
	}
	var out []RefSlice
	cut := 0 // window index of the current slice's start
	for w := 0; w < len(lin); w++ {
		if bytes := offs[w+1] - offs[cut]; bytes >= targetBytes && w+1 < len(lin) {
			out = append(out, RefSlice{
				Beg:   cut << linearShift,
				End:   (w + 1) << linearShift,
				Bytes: bytes,
			})
			cut = w + 1
		}
	}
	if n := len(out); n > 0 && offs[len(lin)]-offs[cut] < bgzf.MaxBlockSize {
		cut = out[n-1].Beg >> linearShift
		out = out[:n-1]
	}
	out = append(out, RefSlice{
		Beg:   cut << linearShift,
		End:   maxBase,
		Bytes: offs[len(lin)] - offs[cut],
	})
	return out
}

// NumRefs returns the number of references the index covers.
func (idx *Index) NumRefs() int { return len(idx.refs) }

// WriteTo serialises the index in the BAI file format.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	var buf []byte
	buf = append(buf, baiMagic...)
	buf = appendInt32(buf, int32(len(idx.refs)))
	for _, ref := range idx.refs {
		bins := make([]uint32, 0, len(ref.bins))
		for b := range ref.bins {
			bins = append(bins, b)
		}
		sort.Slice(bins, func(i, j int) bool { return bins[i] < bins[j] })
		buf = appendInt32(buf, int32(len(bins)))
		for _, b := range bins {
			chunks := ref.bins[b]
			buf = appendUint32(buf, b)
			buf = appendInt32(buf, int32(len(chunks)))
			for _, c := range chunks {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Beg))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(c.End))
			}
		}
		buf = appendInt32(buf, int32(len(ref.linear)))
		for _, v := range ref.linear {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadIndex parses a BAI file.
func ReadIndex(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < 8 || string(data[:4]) != string(baiMagic) {
		return nil, errors.New("bam: bad BAI magic")
	}
	off := 4
	readI32 := func() (int32, error) {
		if off+4 > len(data) {
			return 0, errors.New("bam: truncated BAI")
		}
		v := int32(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		return v, nil
	}
	readU64 := func() (uint64, error) {
		if off+8 > len(data) {
			return 0, errors.New("bam: truncated BAI")
		}
		v := binary.LittleEndian.Uint64(data[off:])
		off += 8
		return v, nil
	}
	// Counts come from untrusted input: every one is validated against
	// the bytes actually present before a proportional allocation.
	remaining := func() int { return len(data) - off }
	nRef, err := readI32()
	if err != nil || nRef < 0 || int(nRef) > remaining()/4 {
		return nil, errors.New("bam: bad BAI reference count")
	}
	idx := NewIndex(int(nRef))
	for i := int32(0); i < nRef; i++ {
		nBin, err := readI32()
		if err != nil {
			return nil, err
		}
		if nBin < 0 || int(nBin) > remaining()/8 {
			return nil, errors.New("bam: bad BAI bin count")
		}
		for j := int32(0); j < nBin; j++ {
			bin, err := readI32()
			if err != nil {
				return nil, err
			}
			nChunk, err := readI32()
			if err != nil {
				return nil, err
			}
			if nChunk < 0 || int(nChunk) > remaining()/16 {
				return nil, errors.New("bam: bad BAI chunk count")
			}
			chunks := make([]Chunk, 0, nChunk)
			for k := int32(0); k < nChunk; k++ {
				beg, err := readU64()
				if err != nil {
					return nil, err
				}
				end, err := readU64()
				if err != nil {
					return nil, err
				}
				chunks = append(chunks, Chunk{bgzf.VOffset(beg), bgzf.VOffset(end)})
			}
			idx.refs[i].bins[uint32(bin)] = chunks
		}
		nIntv, err := readI32()
		if err != nil {
			return nil, err
		}
		if nIntv < 0 || int(nIntv) > remaining()/8 {
			return nil, errors.New("bam: bad BAI interval count")
		}
		linear := make([]bgzf.VOffset, 0, nIntv)
		for k := int32(0); k < nIntv; k++ {
			v, err := readU64()
			if err != nil {
				return nil, err
			}
			linear = append(linear, bgzf.VOffset(v))
		}
		idx.refs[i].linear = linear
	}
	return idx, nil
}
