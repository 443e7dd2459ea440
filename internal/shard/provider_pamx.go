package shard

import (
	"encoding/binary"
	"math"
	"sync"

	"parseq/internal/formats/pamx"
	"parseq/internal/sam"
)

// Projector is implemented by providers whose storage is columnar
// enough to skip fields: Project narrows subsequent readers to the
// given projection and re-weights shard byte estimates to the columns
// actually inflated. Must be called before GenerateShards/NewReader.
type Projector interface {
	Project(fields pamx.Fields)
}

// Project narrows p to fields when its storage supports projection and
// is a no-op otherwise — the seam analysis drivers call with their
// minimal field set so row-major providers keep working unchanged.
func Project(p Provider, fields pamx.Fields) {
	if pr, ok := p.(Projector); ok {
		pr.Project(fields)
	}
}

// PAMXProvider serves shards of a columnar PAMX file: one shard per
// column group. Groups never mix references, so reference selection
// filters whole groups, and the exactly-once contract is inherited from
// the writer's start-within group assignment. The byte weight of a
// shard is the compressed size of only the projected columns, so
// partitioning balances the work a projection actually does. One
// read-only handle is shared by every reader: column loads are
// position-less ReadAt calls.
type PAMXProvider struct {
	path string

	mu     sync.Mutex
	pf     *pamx.PathFile
	fields pamx.Fields
	loaded bool
}

// NewPAMXProvider returns a provider over the PAMX file at path with
// the full projection; Project narrows it.
func NewPAMXProvider(path string) *PAMXProvider {
	return &PAMXProvider{path: path, fields: pamx.FieldAll}
}

// Project restricts readers to the given columns (the coordinate column
// is always loaded) and shard weights to their compressed bytes.
func (p *PAMXProvider) Project(fields pamx.Fields) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fields = fields | pamx.FieldCoord
}

func (p *PAMXProvider) load() (*pamx.PathFile, pamx.Fields, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.loaded {
		pf, err := pamx.OpenPath(p.path)
		if err != nil {
			return nil, 0, err
		}
		p.pf, p.loaded = pf, true
	}
	return p.pf, p.fields, nil
}

// Header returns the embedded SAM header.
func (p *PAMXProvider) Header() (*sam.Header, error) {
	pf, _, err := p.load()
	if err != nil {
		return nil, err
	}
	return pf.Header(), nil
}

// GenerateShards maps each selected column group to one shard. The
// TargetShards/TargetBytes guides are ignored: the file's group
// structure is the partition, fixed at write time; a Region keeps the
// groups it overlaps, clipped.
func (p *PAMXProvider) GenerateShards(opts Options) ([]Shard, error) {
	pf, fields, err := p.load()
	if err != nil {
		return nil, err
	}
	h := pf.Header()
	refIDs, withTail, err := resolveRefs(h, opts)
	if err != nil {
		return nil, err
	}
	selected := make(map[int32]bool, len(refIDs))
	for _, id := range refIDs {
		selected[int32(id)] = true
	}
	var shards []Shard
	for i := 0; i < pf.NumGroups(); i++ {
		g := pf.Group(i)
		var name string
		switch {
		case g.RefID < 0:
			if !withTail {
				continue
			}
		case !selected[g.RefID]:
			continue
		default:
			name = h.RefByID(int(g.RefID)).Name
		}
		beg, end := opts.clip(int(g.Beg), int(g.End))
		if opts.Region != nil && beg >= end {
			continue
		}
		shards = append(shards, Shard{
			Seq:     len(shards),
			RefID:   g.RefID,
			RefName: name,
			Beg:     beg,
			End:     end,
			RecLo:   int64(i), // the group index; RecHi is unused
			RecHi:   int64(i) + 1,
			Bytes:   g.CompressedBytes(fields),
		})
	}
	return shards, nil
}

// NewReader opens a projected reader over one shard's column group,
// filtered to the shard's interval when a Region clipped it short.
func (p *PAMXProvider) NewReader(sh Shard) (RecordReader, error) {
	pf, fields, err := p.load()
	if err != nil {
		return nil, err
	}
	gr, err := pf.NewGroupReader(int(sh.RecLo), fields)
	if err != nil {
		return nil, err
	}
	if g := pf.Group(int(sh.RecLo)); int64(sh.Beg) > g.Beg || int64(sh.End) < g.End {
		return &startWithin{GroupReader: gr, beg: int32(sh.Beg), end: int32(min(sh.End, math.MaxInt32))}, nil
	}
	return gr, nil
}

// startWithin passes the group's records whose zero-based start lies in
// [beg, end); the position is in every view's fixed prefix.
type startWithin struct {
	*pamx.GroupReader
	beg, end int32
}

func (r *startWithin) NextBody() ([]byte, error) {
	for {
		body, err := r.GroupReader.NextBody()
		if err != nil {
			return nil, err
		}
		if pos := int32(binary.LittleEndian.Uint32(body[4:])); pos >= r.beg && pos < r.end {
			return body, nil
		}
	}
}

// Close releases the shared file handle.
func (p *PAMXProvider) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pf == nil {
		return nil
	}
	err := p.pf.Close()
	p.pf = nil
	return err
}

var _ Provider = (*PAMXProvider)(nil)
var _ Projector = (*PAMXProvider)(nil)
