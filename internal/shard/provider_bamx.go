package shard

import (
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"sync"

	"parseq/internal/bam"
	"parseq/internal/bamx"
	"parseq/internal/formats/pamx"
	"parseq/internal/sam"
)

// BAMXProvider serves shards of a BAMX file through its BAIX index. The
// fixed stride makes shard weights exact — every record costs the same
// bytes — so shards split entry ranges evenly instead of estimating
// from compression. One read-only file handle is shared by every
// reader: ReadAt is position-less and safe concurrently.
//
// The stride also puts every field at a constant offset, so the
// provider is a Projector: under FieldCoord or FieldCoord|FieldCigar
// readers lift the fixed prefix (and the CIGAR) out of the chunk instead
// of reassembling the record; wider projections return full bodies.
type BAMXProvider struct {
	path     string
	baixPath string

	mu     sync.Mutex
	osf    *os.File
	file   *bamx.File
	index  *bamx.Index
	fields pamx.Fields
	loaded bool
}

// NewBAMXProvider returns a provider over the BAMX file at path, with
// its BAIX sidecar at path minus ".bamx" plus ".baix" (the bamxtool
// convention), or rebuilt by a scan when the sidecar is missing.
func NewBAMXProvider(path string) *BAMXProvider {
	return &BAMXProvider{
		path:     path,
		baixPath: strings.TrimSuffix(path, ".bamx") + ".baix",
		fields:   pamx.FieldAll,
	}
}

// Project narrows the view readers return to fields (the fixed prefix
// is always present). Shard weights do not change: a fixed-stride read
// moves every byte of a record whatever the view.
func (p *BAMXProvider) Project(fields pamx.Fields) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fields = fields | pamx.FieldCoord
}

func (p *BAMXProvider) load() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.loaded {
		return nil
	}
	f, err := os.Open(p.path)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	xf, err := bamx.Open(f, st.Size())
	if err != nil {
		f.Close()
		return err
	}
	var idx *bamx.Index
	if data, err := os.ReadFile(p.baixPath); err == nil {
		if idx, err = bamx.ParseIndex(data); err != nil {
			f.Close()
			return fmt.Errorf("shard: reading %s: %w", p.baixPath, err)
		}
	} else if idx, err = bamx.BuildIndex(xf); err != nil {
		f.Close()
		return err
	}
	p.osf, p.file, p.index, p.loaded = f, xf, idx, true
	return nil
}

// Header returns the embedded SAM header.
func (p *BAMXProvider) Header() (*sam.Header, error) {
	if err := p.load(); err != nil {
		return nil, err
	}
	return p.file.Header(), nil
}

// GenerateShards splits each selected reference's BAIX entry range into
// even record-count pieces (stride × records is the exact byte weight),
// plus the physical tail of unmapped records for whole-file selections.
func (p *BAMXProvider) GenerateShards(opts Options) ([]Shard, error) {
	if err := p.load(); err != nil {
		return nil, err
	}
	h := p.file.Header()
	refIDs, withTail, err := resolveRefs(h, opts)
	if err != nil {
		return nil, err
	}
	stride := int64(p.file.Stride())
	total := int64(p.index.Len()) * stride
	target := opts.TargetBytes
	if target <= 0 {
		n := opts.TargetShards
		if n <= 0 {
			n = DefaultTargetShards
		}
		target = total / int64(n)
	}
	if target < stride {
		target = stride
	}
	entries := p.index.Entries()
	var shards []Shard
	var maxPhys int64 = -1
	for _, e := range entries {
		if e.Index > maxPhys {
			maxPhys = e.Index
		}
	}
	for _, id := range refIDs {
		lo, hi := p.index.RefRange(int32(id))
		count := int64(hi - lo)
		if count == 0 {
			continue
		}
		pieces := int((count*stride + target - 1) / target)
		if pieces < 1 {
			pieces = 1
		}
		ref := h.RefByID(id)
		for k := 0; k < pieces; k++ {
			a := lo + int(count*int64(k)/int64(pieces))
			b := lo + int(count*int64(k+1)/int64(pieces))
			if a == b {
				continue
			}
			shards = append(shards, Shard{
				Seq:     len(shards),
				RefID:   int32(id),
				RefName: ref.Name,
				Beg:     int(entries[a].Pos) - 1,
				End:     int(entries[b-1].Pos),
				RecLo:   int64(a),
				RecHi:   int64(b),
				Bytes:   int64(b-a) * stride,
			})
		}
	}
	if withTail {
		physLo := maxPhys + 1
		physHi := p.file.NumRecords()
		shards = append(shards, Shard{
			Seq:   len(shards),
			RefID: -1,
			RecLo: physLo,
			RecHi: physHi,
			Bytes: (physHi - physLo) * stride,
		})
	}
	return shards, nil
}

// bamxShardReader iterates one shard's records through the file's
// run-coalescing scanner: the BAIX entries of a region shard, or the
// physical tail range for the unmapped shard (filtered to refID < 0 as
// defence in depth).
type bamxShardReader struct {
	file   *bamx.File
	sc     *bamx.Scanner
	fields pamx.Fields
	tail   bool
	body   []byte // reassembled-view scratch
}

// NextBody returns the next record under the projection. The narrow
// views follow pamx.GroupReader.NextBody's convention — the fixed
// prefix with a placeholder name (l_read_name = 1, one NUL), l_seq = 0,
// and the CIGAR or n_cigar = 0 — after the same lengths-vs-caps check
// the full reassembly makes.
func (r *bamxShardReader) NextBody() ([]byte, error) {
	raw, err := r.sc.NextRaw()
	for r.tail && err == nil && int32(binary.LittleEndian.Uint32(raw)) >= 0 {
		raw, err = r.sc.NextRaw()
	}
	if err != nil {
		return nil, err
	}
	if r.fields&^(pamx.FieldCoord|pamx.FieldCigar) != 0 {
		r.body, err = r.file.AppendBody(r.body[:0], raw)
		return r.body, err
	}
	cigar, err := r.file.RawCigar(raw)
	if err != nil {
		return nil, err
	}
	body := append(r.body[:0], raw[:32]...)
	body = append(body, 0)
	body[8] = 1
	binary.LittleEndian.PutUint32(body[16:], 0)
	if r.fields.Has(pamx.FieldCigar) {
		body = append(body, cigar...)
	} else {
		binary.LittleEndian.PutUint16(body[12:], 0)
	}
	r.body = body
	return body, nil
}

func (r *bamxShardReader) ReadInto(rec *sam.Record) error {
	body, err := r.NextBody()
	if err != nil {
		return err
	}
	return bam.DecodeRecord(body, rec, r.file.Header())
}

// Close is a no-op: the file handle belongs to the provider.
func (r *bamxShardReader) Close() error { return nil }

// NewReader opens an iterator over one shard.
func (p *BAMXProvider) NewReader(sh Shard) (RecordReader, error) {
	if err := p.load(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	r := &bamxShardReader{file: p.file, fields: p.fields, tail: sh.Unmapped()}
	p.mu.Unlock()
	n := int64(p.index.Len())
	if r.tail {
		n = p.file.NumRecords()
	}
	if sh.RecLo < 0 || sh.RecHi < sh.RecLo || sh.RecHi > n {
		return nil, fmt.Errorf("shard: BAMX record range [%d, %d) out of bounds [0, %d)", sh.RecLo, sh.RecHi, n)
	}
	if r.tail {
		r.sc = p.file.Scan(sh.RecLo, sh.RecHi)
	} else {
		r.sc = p.file.ScanEntries(p.index.Entries()[sh.RecLo:sh.RecHi])
	}
	return r, nil
}

// Close releases the shared file handle.
func (p *BAMXProvider) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.osf == nil {
		return nil
	}
	err := p.osf.Close()
	p.osf = nil
	return err
}

var _ Projector = (*BAMXProvider)(nil)
