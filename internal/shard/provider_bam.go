package shard

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"parseq/internal/bam"
	"parseq/internal/sam"
)

// BAMProvider serves shards of an indexed, coordinate-sorted BAM file.
// NewReader opens an independent file handle and BGZF stream per shard,
// so readers run concurrently across local workers and rank goroutines
// without shared mutable state. The index loads lazily on first use:
// from the .bai sidecar when present, otherwise built in memory by one
// scan (kept for the provider's lifetime).
type BAMProvider struct {
	path string
	settings

	mu     sync.Mutex
	header *sam.Header
	index  *bam.Index
	size   int64
	loaded bool
}

// NewBAMProvider returns a provider over the BAM file at path. Shard
// readers default to the sequential codec (WithCodecWorkers overrides):
// the shards themselves are the parallelism, and stacking a decode
// pipeline per shard oversubscribes the machine.
func NewBAMProvider(path string, opts ...Option) *BAMProvider {
	return &BAMProvider{path: path, settings: newSettings(path+".bai", opts)}
}

// load resolves the header, index and file size once, under the mutex —
// concurrent rank goroutines share one provider.
func (p *BAMProvider) load() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.loaded {
		return nil
	}
	f, err := os.Open(p.path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	br, err := bam.NewReader(f)
	if err != nil {
		// OpenPathProvider sends every extension it does not know here.
		return fmt.Errorf("shard: %s is not a readable BAM file (a provider reads %s): %w",
			p.path, strings.Join(Exts(), ", "), err)
	}
	header := br.Header()
	br.Close()

	var idx *bam.Index
	if inf, err := os.Open(p.indexPath); err == nil {
		idx, err = bam.ReadIndex(inf)
		inf.Close()
		if err != nil {
			return fmt.Errorf("shard: reading %s: %w", p.indexPath, err)
		}
	} else if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	} else if idx, err = bam.BuildFileIndex(f); err != nil { // no sidecar: one scan, in memory
		return err
	}
	p.header, p.index, p.size, p.loaded = header, idx, st.Size(), true
	return nil
}

// Header returns the BAM header.
func (p *BAMProvider) Header() (*sam.Header, error) {
	if err := p.load(); err != nil {
		return nil, err
	}
	return p.header, nil
}

// GenerateShards cuts the selected references into shards of roughly
// equal compressed size, derived from the BAI linear index, plus the
// unmapped-tail shard for whole-file selections.
func (p *BAMProvider) GenerateShards(opts Options) ([]Shard, error) {
	if err := p.load(); err != nil {
		return nil, err
	}
	refIDs, withTail, err := resolveRefs(p.header, opts)
	if err != nil {
		return nil, err
	}
	// Total compressed bytes under the selection sets the per-shard goal.
	var total int64
	for _, id := range refIDs {
		if beg, end, ok := p.index.RefSpan(id); ok {
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
		for _, sl := range p.index.ByteSplits(id, ref.Length, target) {
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
		tail := p.size - p.index.EndOffset().Block()
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
// and BGZF reader, positioned by the BAI, filtered to the shard.
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

// NewReader opens an independent iterator over one shard: a start-within
// region reader for reference shards, the unmapped-tail reader for the
// tail.
func (p *BAMProvider) NewReader(sh Shard) (RecordReader, error) {
	if err := p.load(); err != nil {
		return nil, err
	}
	f, err := os.Open(p.path)
	if err != nil {
		return nil, err
	}
	var bopts []bam.Option
	if p.codecWorkers > 1 {
		bopts = append(bopts, bam.WithCodecWorkers(p.codecWorkers))
	}
	br, err := bam.NewReader(f, bopts...)
	if err != nil {
		f.Close()
		return nil, err
	}
	r := &bamShardReader{f: f, br: br}
	if sh.Unmapped() {
		r.it, err = bam.NewUnmappedTailReader(br, p.index)
	} else {
		r.it, err = bam.NewShardRegionReader(br, p.index, sh.RefName, sh.Beg, sh.End)
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
