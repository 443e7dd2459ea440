package shard

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"

	"parseq/internal/bamx"
	"parseq/internal/formats/pamx"
	"parseq/internal/mpi"
	"parseq/internal/sam"
)

// BAMXProvider serves shards of a fixed-stride BAMX file, plain or
// block-compressed (BAMZ). The stride makes shard weights exact, so
// shards split record ranges evenly instead of estimating from
// compression, and a whole-file selection needs no index: it is cut
// into even physical record ranges, in file order whether or not the
// file is sorted. The BAIX sidecar is loaded only when a selection
// names a reference; a plain file missing one rebuilds it by a scan.
//
// Readers of a plain file share one read-only handle. A compressed
// handle inflates through a one-block cache and is single-consumer, so
// each BAMZ reader opens its own plain-file view
// (bamx.CompressedFile.File) and inflates only the blocks its records
// live in, with WithCodecWorkers' count placing the inflate.
//
// The stride also puts every field at a constant offset, so the
// provider is a Projector: under FieldCoord or FieldCoord|FieldCigar
// readers lift the fixed prefix (and the CIGAR) out of the chunk instead
// of reassembling the record; wider projections return full bodies.
type BAMXProvider struct {
	path string
	settings
	compressed bool

	mu     sync.Mutex
	file   *bamxHandle // plain: every reader's; compressed: header and geometry only
	index  *bamx.Index
	fields pamx.Fields
}

// NewBAMXProvider returns a provider over the BAMX file at path, with
// its BAIX sidecar at path minus ".bamx" plus ".baix" (the bamxtool
// convention) unless WithIndexPath names another.
func NewBAMXProvider(path string, opts ...Option) *BAMXProvider {
	return &BAMXProvider{path: path, settings: newSettings(strings.TrimSuffix(path, ".bamx")+".baix", opts), fields: pamx.FieldAll}
}

// NewBAMZProvider is NewBAMXProvider for a block-compressed ".bamz".
// Record indices survive compression, so the BAIX is the plain file's.
func NewBAMZProvider(path string, opts ...Option) *BAMXProvider {
	return &BAMXProvider{path: path, settings: newSettings(strings.TrimSuffix(path, ".bamz")+".baix", opts), fields: pamx.FieldAll, compressed: true}
}

// bamxHandle is one open handle on the container.
type bamxHandle struct {
	*bamx.File
	osf *os.File
	zf  *bamx.CompressedFile // under File, for BAMZ
}

func (h *bamxHandle) Close() error {
	if h.zf != nil {
		h.zf.Close() // stops the readahead
	}
	return h.osf.Close()
}

func (p *BAMXProvider) open() (*bamxHandle, error) {
	f, err := os.Open(p.path)
	if err != nil {
		return nil, err
	}
	h := &bamxHandle{osf: f}
	st, err := f.Stat()
	switch {
	case err != nil: // falls through to the close below
	case p.compressed:
		if h.zf, err = bamx.OpenCompressed(f, st.Size()); err == nil {
			h.File = h.zf.File()
		}
	default:
		h.File, err = bamx.Open(f, st.Size())
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return h, nil
}

// Project narrows the view readers return to fields (the fixed prefix
// is always present). Shard weights do not change: a fixed-stride read
// moves every byte of a record whatever the view.
func (p *BAMXProvider) Project(fields pamx.Fields) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fields = fields | pamx.FieldCoord
}

func (p *BAMXProvider) load() (err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.file == nil {
		p.file, err = p.open()
	}
	return err
}

// loadIndex resolves the BAIX once: the sidecar, or for a plain file
// without one, a scan.
func (p *BAMXProvider) loadIndex() (*bamx.Index, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.index != nil {
		return p.index, nil
	}
	data, err := os.ReadFile(p.indexPath)
	switch {
	case err == nil:
		if p.index, err = bamx.ParseIndex(data); err != nil {
			err = fmt.Errorf("shard: reading %s: %w", p.indexPath, err)
		}
	case !os.IsNotExist(err): // an unreadable sidecar is reported, not papered over
	case p.compressed:
		err = fmt.Errorf("shard: a reference or region selection of a compressed BAMX needs its BAIX index: %w", err)
	default:
		p.index, err = bamx.BuildIndex(p.file.File)
	}
	return p.index, err
}

// Header returns the embedded SAM header.
func (p *BAMXProvider) Header() (*sam.Header, error) {
	if err := p.load(); err != nil {
		return nil, err
	}
	return p.file.Header(), nil
}

// GenerateShards cuts the selection into even record-count pieces
// (stride × records is the exact byte weight): physical record ranges
// for a whole-file selection, pieces of each reference's BAIX entry
// range — or of the entries starting within a Region — otherwise. The
// shard budget is spread over the file's records (a reference gets its
// proportional share), or over the region alone.
func (p *BAMXProvider) GenerateShards(opts Options) ([]Shard, error) {
	if err := p.load(); err != nil {
		return nil, err
	}
	h, count, stride := p.file.Header(), p.file.NumRecords(), int64(p.file.Stride())
	refIDs, whole, err := resolveRefs(h, opts)
	if err != nil {
		return nil, err
	}
	type span struct {
		refID  int32
		lo, hi int64
	}
	spans, total := []span{{-1, 0, count}}, count
	var entries []bamx.Entry
	if !whole {
		idx, err := p.loadIndex()
		if err != nil {
			return nil, err
		}
		entries, total, spans = idx.Entries(), int64(idx.Len()), nil
		for _, id := range refIDs {
			lo, hi := idx.RefRange(int32(id))
			if r := opts.Region; r != nil {
				// Zero-based [Beg, End) is 1-based inclusive [Beg+1, End].
				lo, hi = idx.Region(int32(id), int32(min(r.Beg, math.MaxInt32-1))+1, int32(min(r.End, math.MaxInt32)))
				total = int64(hi - lo)
			}
			spans = append(spans, span{int32(id), int64(lo), int64(hi)})
		}
	}
	n := int64(opts.TargetShards)
	if n <= 0 {
		n = DefaultTargetShards
	}
	if opts.TargetBytes > 0 {
		n = max(1, (total*stride+opts.TargetBytes-1)/opts.TargetBytes)
	}
	var shards []Shard
	for _, sp := range spans {
		cnt := sp.hi - sp.lo
		if cnt <= 0 {
			continue
		}
		pieces := int((n*cnt + total - 1) / total)
		for k := 0; k < pieces; k++ {
			a, b := mpi.SplitRange(int(cnt), pieces, k)
			if a == b {
				continue
			}
			sh := Shard{
				Seq:   len(shards),
				RefID: sp.refID,
				RecLo: sp.lo + int64(a),
				RecHi: sp.lo + int64(b),
				Bytes: int64(b-a) * stride,
			}
			if sp.refID >= 0 {
				sh.RefName = h.RefByID(int(sp.refID)).Name
				sh.Beg, sh.End = int(entries[sh.RecLo].Pos)-1, int(entries[sh.RecHi-1].Pos)
			}
			shards = append(shards, sh)
		}
	}
	return shards, nil
}

// bamxShardReader iterates one shard's records through the file's
// run-coalescing scanner: the BAIX entries of a reference shard, or a
// physical record range.
type bamxShardReader struct {
	file   *bamxHandle
	own    bool // a BAMZ reader's handle is its alone, and closes with it
	sc     *bamx.Scanner
	fields pamx.Fields
	body   []byte // reassembled-view scratch
}

// NextBody returns the next record under the projection. The narrow
// views follow pamx.GroupReader.NextBody's convention — the fixed
// prefix with a placeholder name (l_read_name = 1, one NUL), l_seq = 0,
// and the CIGAR or n_cigar = 0 — after the same lengths-vs-caps check
// the full reassembly makes.
func (r *bamxShardReader) NextBody() ([]byte, error) {
	raw, err := r.sc.NextRaw()
	if err != nil {
		return nil, err
	}
	if r.fields&^(pamx.FieldCoord|pamx.FieldCigar) != 0 {
		r.body, err = r.file.UnpadBody(r.body[:0], raw)
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

// Close releases the reader's own handle; the provider's stays open.
func (r *bamxShardReader) Close() error {
	if r.own {
		return r.file.Close()
	}
	return nil
}

// NewReader opens an iterator over one shard: the BAIX entries
// [RecLo, RecHi) of a reference shard, the records of a physical range.
func (p *BAMXProvider) NewReader(sh Shard) (RecordReader, error) {
	if err := p.load(); err != nil {
		return nil, err
	}
	var entries []bamx.Entry
	count := p.file.NumRecords()
	if !sh.Unmapped() {
		idx, err := p.loadIndex()
		if err != nil {
			return nil, err
		}
		entries, count = idx.Entries(), int64(idx.Len())
	}
	if sh.RecLo < 0 || sh.RecHi < sh.RecLo || sh.RecHi > count {
		return nil, fmt.Errorf("shard: BAMX record range [%d, %d) out of bounds [0, %d)", sh.RecLo, sh.RecHi, count)
	}
	p.mu.Lock()
	r := &bamxShardReader{file: p.file, fields: p.fields, own: p.compressed}
	p.mu.Unlock()
	if r.own {
		var err error
		if r.file, err = p.open(); err != nil {
			return nil, err
		}
		r.file.zf.StartReadahead(p.codecWorkers)
	}
	if sh.Unmapped() {
		r.sc = r.file.Scan(sh.RecLo, sh.RecHi)
	} else {
		r.sc = r.file.ScanEntries(entries[sh.RecLo:sh.RecHi])
	}
	return r, nil
}

// Close releases the provider's handle.
func (p *BAMXProvider) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.file == nil {
		return nil
	}
	err := p.file.Close()
	p.file = nil
	return err
}

var _ Projector = (*BAMXProvider)(nil)
