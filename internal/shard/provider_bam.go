package shard

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"

	"parseq/internal/bam"
	"parseq/internal/bgzf"
	"parseq/internal/sam"
)

// BAMProvider serves shards of a BAM file. A whole-file selection is
// file-order pieces cut on record starts the .bai linear index names,
// the last running to the end of the file, unmapped tail and all; with
// no .bai, or at one target shard, it is one piece, which needs no sort
// order. A reference or region selection is .bai index shards, or with
// no .bai one filtered stream per reference. No shard or piece is
// estimated under one BGZF member. Readers share one handle (ReadAt) and
// the parsed header, so they run concurrently across local workers and
// rank goroutines without shared mutable state.
type BAMProvider struct {
	path string
	settings

	mu        sync.Mutex
	f         *os.File
	header    *sam.Header
	dataStart bgzf.VOffset // the first record
	index     *bam.Index
	size      int64
}

// NewBAMProvider returns a provider over the BAM file at path. By
// default an index shard's or a piece's reader inflates on the caller,
// the shards being the parallelism, and a lone piece's on bgzf's
// adaptive count; WithCodecWorkers sets both.
func NewBAMProvider(path string, opts ...Option) *BAMProvider {
	return &BAMProvider{path: path, settings: newSettings(path+".bai", opts)}
}

// load opens the shared handle with its header and size once and, when
// withIndex is set, the .bai sidecar once (nil when there is none),
// under the mutex — concurrent rank goroutines share one provider.
func (p *BAMProvider) load(withIndex bool) (*bam.Index, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.f == nil {
		f, err := os.Open(p.path)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		br, err := bam.NewReader(f)
		if err != nil {
			f.Close()
			// OpenPathProvider sends every extension it does not know here.
			return nil, fmt.Errorf("shard: %s is not a readable BAM file (a provider reads %s): %w",
				p.path, strings.Join(Exts(), ", "), err)
		}
		br.Close()
		p.f, p.header, p.dataStart, p.size = f, br.Header(), br.DataStart(), st.Size()
	}
	if withIndex && p.index == nil {
		f, err := os.Open(p.indexPath)
		if os.IsNotExist(err) {
			return nil, nil
		} else if err != nil { // an unreadable sidecar is reported, not papered over
			return nil, err
		}
		defer f.Close()
		if p.index, err = bam.ReadIndex(f); err != nil {
			return nil, fmt.Errorf("shard: reading %s: %w", p.indexPath, err)
		}
	}
	return p.index, nil
}

// Header returns the BAM header.
func (p *BAMProvider) Header() (*sam.Header, error) {
	_, err := p.load(false)
	return p.header, err
}

// toEOF is the RecHi of a piece that runs to the end of the file: no
// position in it, so the stream's own end (its EOF marker) ends the piece.
const toEOF = bgzf.VOffset(math.MaxInt64)

// byteGoal is a shard's compressed-byte goal over a selection of total
// bytes: TargetBytes, or else a TargetShards share, and never under one
// BGZF member.
func byteGoal(opts Options, total int64) int64 {
	goal := opts.TargetBytes
	if goal <= 0 {
		n := opts.TargetShards
		if n <= 0 {
			n = DefaultTargetShards
		}
		goal = total / int64(n)
	}
	return max(goal, bgzf.MaxBlockSize)
}

// GenerateShards returns the pieces of a whole-file selection (one with
// no .bai or at TargetShards 1, which then never opens it); for a Refs
// or Region selection, index shards of roughly equal compressed size
// from the BAI linear index, or with no .bai one stream per reference.
func (p *BAMProvider) GenerateShards(opts Options) ([]Shard, error) {
	if _, err := p.load(false); err != nil {
		return nil, err
	}
	refIDs, whole, err := resolveRefs(p.header, opts)
	if err != nil {
		return nil, err
	}
	var idx *bam.Index
	if !whole || opts.TargetShards != 1 || opts.TargetBytes > 0 {
		if idx, err = p.load(true); err != nil {
			return nil, err
		}
	}
	var shards []Shard
	if whole {
		var cuts []bgzf.VOffset
		if total := p.size - p.dataStart.Block(); idx != nil {
			cuts = idx.Cuts(p.dataStart, p.size, int(total/byteGoal(opts, total)))
		}
		lo := p.dataStart
		for _, hi := range append(cuts, toEOF) {
			shards = append(shards, Shard{Seq: len(shards), RefID: -1, RecLo: int64(lo), RecHi: int64(hi), Bytes: min(hi.Block(), p.size) - lo.Block()})
			lo = hi
		}
		return shards, nil
	}
	if idx == nil {
		for _, id := range refIDs {
			beg, end := opts.clip(0, math.MaxInt32)
			shards = append(shards, Shard{Seq: len(shards), RefID: int32(id), RefName: p.header.RefByID(id).Name, Beg: beg, End: end,
				RecLo: int64(p.dataStart), RecHi: int64(toEOF), Bytes: p.size})
		}
		return shards, nil
	}
	// Total compressed bytes under the selection sets the per-shard goal.
	var total int64
	for _, id := range refIDs {
		if beg, end, ok := idx.RefSpan(id); ok {
			total += end.Block() - beg.Block() + 1
		}
	}
	if r := opts.Region; r != nil { // its share of the reference, estimated by base width
		total = total * int64(max(r.End-r.Beg, 0)) / int64(max(p.header.RefByID(refIDs[0]).Length, 1))
	}
	target := byteGoal(opts, total)
	for _, id := range refIDs {
		ref := p.header.RefByID(id)
		for _, sl := range idx.ByteSplits(id, ref.Length, target) {
			beg, end := opts.clip(sl.Beg, sl.End)
			if beg >= end {
				continue
			}
			shards = append(shards, Shard{
				Seq:     len(shards),
				RefID:   int32(id),
				RefName: ref.Name,
				Beg:     beg,
				End:     end,
				Bytes:   sl.Bytes,
			})
		}
	}
	return shards, nil
}

// bamStream iterates a piece through its reader's own cursor, which
// NewPieceScanner bounds at the piece's end: every body of it, or with
// sh.RefID ≥ 0 those of that reference starting within [sh.Beg, sh.End),
// in any order (a bare BAM need not be sorted).
type bamStream struct {
	*bam.Reader
	sh Shard
}

func (s bamStream) NextBody() ([]byte, error) {
	for {
		body, err := s.ReadBody() // at least the 32-byte fixed section
		if err != nil || s.sh.RefID < 0 {
			return body, err
		}
		pos := int(int32(binary.LittleEndian.Uint32(body[4:])))
		if int32(binary.LittleEndian.Uint32(body)) == s.sh.RefID && pos >= s.sh.Beg && pos < s.sh.End {
			return body, nil
		}
	}
}

// NewReader opens an independent iterator over one shard on its own
// reader: a piece from RecLo to RecHi, or for index shards a
// start-within region reader.
func (p *BAMProvider) NewReader(sh Shard) (RecordReader, error) {
	piece := sh.RecHi != 0
	idx, err := p.load(!piece)
	if err == nil && !piece && idx == nil {
		err = fmt.Errorf("shard: index shard %v of %s, which has no %s", sh, p.path, p.indexPath)
	}
	if err != nil {
		return nil, err
	}
	lo, hi := bgzf.VOffset(sh.RecLo), bgzf.VOffset(sh.RecHi)
	codec := p.codecWorkers
	if lo == p.dataStart && hi == toEOF && !p.codecSet {
		codec = 0 // a lone piece has no siblings to run beside
	}
	br, err := bam.NewReaderAt(io.NewSectionReader(p.f, 0, p.size), p.header, lo, bam.WithCodecWorkers(codec))
	if err != nil {
		return nil, fmt.Errorf("shard: %s: %w", p.path, err)
	}
	if piece {
		bam.NewPieceScanner(br, hi)
		return bamStream{br, sh}, nil
	}
	rr, err := bam.NewShardRegionReader(br, idx, sh.RefName, sh.Beg, sh.End)
	if err != nil {
		br.Close()
		return nil, err
	}
	return struct {
		*bam.RegionReader
		io.Closer
	}{rr, br}, nil
}

// Close releases the shared handle; a later call opens it again.
func (p *BAMProvider) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.f == nil {
		return nil
	}
	err := p.f.Close()
	p.f = nil
	return err
}
