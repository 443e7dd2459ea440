package shard

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"

	"parseq/internal/bam"
	"parseq/internal/sam"
)

// BAMProvider serves shards of a BAM file in one of two modes, picked
// from the input. With no .bai sidecar, or for a whole-file selection of
// one target shard, the selection is one stream shard: the file read
// from its first record in file order, keeping the records the
// selection names, so it needs neither an index nor a sort order.
// Otherwise the .bai cuts it into index shards. NewReader opens an
// independent file handle and BGZF stream per shard, so readers run
// concurrently across local workers and rank goroutines without shared
// mutable state.
type BAMProvider struct {
	path string
	settings

	mu     sync.Mutex
	header *sam.Header
	index  *bam.Index
	size   int64
}

// NewBAMProvider returns a provider over the BAM file at path. By
// default an index shard's reader inflates on the caller, the shards
// being the parallelism, and the lone stream shard's on bgzf's adaptive
// count; WithCodecWorkers sets both.
func NewBAMProvider(path string, opts ...Option) *BAMProvider {
	return &BAMProvider{path: path, settings: newSettings(path+".bai", opts)}
}

// load resolves the header and file size once and, when withIndex is
// set, the .bai sidecar once (nil when there is none), under the mutex —
// concurrent rank goroutines share one provider.
func (p *BAMProvider) load(withIndex bool) (*bam.Index, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.header == nil {
		f, err := os.Open(p.path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		br, err := bam.NewReader(f)
		if err != nil {
			// OpenPathProvider sends every extension it does not know here.
			return nil, fmt.Errorf("shard: %s is not a readable BAM file (a provider reads %s): %w",
				p.path, strings.Join(Exts(), ", "), err)
		}
		br.Close()
		p.header, p.size = br.Header(), st.Size()
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

// GenerateShards returns the stream shard (one per selected reference
// for a Refs or Region selection) when there is no .bai or the selection
// is the whole file at TargetShards 1; otherwise index shards of roughly
// equal compressed size from the BAI linear index, plus the unmapped
// tail of a whole-file selection.
func (p *BAMProvider) GenerateShards(opts Options) ([]Shard, error) {
	if _, err := p.load(false); err != nil {
		return nil, err
	}
	refIDs, withTail, err := resolveRefs(p.header, opts)
	if err != nil {
		return nil, err
	}
	var idx *bam.Index
	if !withTail || opts.TargetShards != 1 || opts.TargetBytes > 0 {
		if idx, err = p.load(true); err != nil {
			return nil, err
		}
	}
	if idx == nil {
		stream := []Shard{{RefID: -1}}
		if !withTail {
			stream = nil
			for _, id := range refIDs {
				beg, end := opts.clip(0, math.MaxInt32)
				stream = append(stream, Shard{Seq: len(stream), RefID: int32(id), RefName: p.header.RefByID(id).Name, Beg: beg, End: end})
			}
		}
		for i := range stream {
			stream[i].RecHi, stream[i].Bytes = p.size, p.size
		}
		return stream, nil
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
	target := opts.TargetBytes
	if target <= 0 {
		n := opts.TargetShards
		if n <= 0 {
			n = DefaultTargetShards
		}
		target = total / int64(n)
	}
	if target < 1 {
		target = 1
	}
	var shards []Shard
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
	if withTail {
		tail := p.size - idx.EndOffset().Block()
		if tail < 0 {
			tail = 0
		}
		shards = append(shards, Shard{
			Seq:   len(shards),
			RefID: -1,
			Bytes: tail,
		})
	}
	return shards, nil
}

// bamShardReader is one shard's independent stream: its own file handle
// and BGZF reader, filtered to the shard.
type bamShardReader struct {
	f  *os.File
	br *bam.Reader
	it interface{ NextBody() ([]byte, error) }
}

func (r *bamShardReader) NextBody() ([]byte, error) { return r.it.NextBody() }

func (r *bamShardReader) Close() error {
	err := r.br.Close()
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// bamStream iterates a stream shard: every body in file order, or with
// sh.RefID ≥ 0 those of that reference starting within [sh.Beg, sh.End).
type bamStream struct {
	*bam.BodyScanner
	sh Shard
}

func (s bamStream) NextBody() ([]byte, error) {
	for {
		body, err := s.Next() // at least the 32-byte fixed section
		if err != nil || s.sh.RefID < 0 {
			return body, err
		}
		pos := int(int32(binary.LittleEndian.Uint32(body[4:])))
		if int32(binary.LittleEndian.Uint32(body)) == s.sh.RefID && pos >= s.sh.Beg && pos < s.sh.End {
			return body, nil
		}
	}
}

// NewReader opens an independent iterator over one shard: a stream
// shard's body scanner, or for index shards a start-within region
// reader, or the unmapped-tail reader for the tail.
func (p *BAMProvider) NewReader(sh Shard) (RecordReader, error) {
	stream := sh.RecHi > sh.RecLo
	idx, err := p.load(!stream)
	if err == nil && !stream && idx == nil {
		err = fmt.Errorf("shard: index shard %v of %s, which has no %s", sh, p.path, p.indexPath)
	}
	if err != nil {
		return nil, err
	}
	codec := p.codecWorkers
	if stream && !p.codecSet {
		codec = 0
	}
	f, err := os.Open(p.path)
	if err != nil {
		return nil, err
	}
	br, err := bam.NewReader(f, bam.WithCodecWorkers(codec))
	if err != nil {
		f.Close()
		return nil, err
	}
	r := &bamShardReader{f: f, br: br}
	switch {
	case stream:
		r.it = bamStream{bam.NewBodyScanner(br), sh}
	case sh.Unmapped():
		r.it, err = bam.NewUnmappedTailReader(br, idx)
	default:
		r.it, err = bam.NewShardRegionReader(br, idx, sh.RefName, sh.Beg, sh.End)
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// Close releases the provider. Per-shard readers own their handles, so
// this is a no-op kept for the Provider contract.
func (p *BAMProvider) Close() error { return nil }
