// Package bgzf implements the BGZF blocked-gzip format BAM files are
// stored in: a series of independent RFC-1952 gzip members, each carrying
// a "BC" extra subfield recording the compressed block size so readers can
// skip between blocks without inflating them. Independent blocks are what
// make BAM indexable — a (block offset, intra-block offset) pair, the
// virtual file offset, addresses any record. Block independence is also
// what makes the format parallelisable: one Writer and one Reader each
// run their blocks either on the caller or on a worker pool, chosen by
// the constructor, with the same bytes, virtual offsets and errors.
//
// A codec worker count n is read here and nowhere else — every other
// package passes its caller's count through unchanged — by one rule,
// which NewParallelWriter[Size], NewParallelReader and DeflateBlocks
// apply: n == 1 runs blocks on the caller, with no goroutine; n > 1 runs
// them on a private pool of n; n ≤ 0 is adaptive, putting writers and
// deflate batches on SharedPool and reading ahead on AutoWorkers()
// workers (on the caller when that is 1).
package bgzf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parseq/internal/obs"
)

const (
	// MaxBlockSize is the maximum size of one compressed BGZF block,
	// including the gzip wrapping, fixed by the specification.
	MaxBlockSize = 0x10000
	// MinBlockSize is the size of the smallest BGZF block, the empty one
	// the EOF marker is: the header with its BC subfield, a two-byte
	// empty DEFLATE block and the CRC32/ISIZE footer.
	MinBlockSize = headerSize + 2 + footerSize
	// MaxPayload is the maximum number of uncompressed bytes stored per
	// block. It is chosen (65280 = 2^16-256) so a worst-case incompressible
	// payload still fits MaxBlockSize after wrapping.
	MaxPayload = 0xff00

	headerSize = 18 // fixed gzip header with a single 6-byte BC extra field
	footerSize = 8  // CRC32 + ISIZE
)

// eofMarker is the specification's canonical empty terminal block. Its
// presence distinguishes a complete BGZF file from a truncated one.
var eofMarker = []byte{
	0x1f, 0x8b, 0x08, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff,
	0x06, 0x00, 0x42, 0x43, 0x02, 0x00, 0x1b, 0x00, 0x03, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
}

// Errors the codec reports.
var (
	ErrNotBGZF     = errors.New("bgzf: not a BGZF block")
	ErrCorrupt     = errors.New("bgzf: corrupt block")
	ErrNoEOFMarker = errors.New("bgzf: missing EOF marker (file truncated?)")
)

// VOffset is a BGZF virtual file offset: the compressed offset of a block
// start in the upper 48 bits and the uncompressed offset within that
// block in the lower 16 bits.
type VOffset uint64

// MakeVOffset packs a block start offset and an intra-block offset.
func MakeVOffset(coffset int64, uoffset int) VOffset {
	return VOffset(uint64(coffset)<<16 | uint64(uoffset)&0xffff)
}

// Block returns the compressed file offset of the containing block.
func (v VOffset) Block() int64 { return int64(v >> 16) }

// Intra returns the uncompressed offset within the block.
func (v VOffset) Intra() int { return int(v & 0xffff) }

// String renders the offset as "block:intra".
func (v VOffset) String() string { return fmt.Sprintf("%d:%d", v.Block(), v.Intra()) }

// deflators recycles deflate state across every block of every writer in
// the process: a conversion opens many short-lived writers (a BAM shard
// per rank, a spill per sorted chunk, a daemon job's output), and none
// of them should pay for its own tables.
var deflators = sync.Pool{New: func() any { return new(deflator) }}

// wrapBlock is wrap on a pooled deflator.
func wrapBlock(dst, payload []byte) []byte {
	d := deflators.Get().(*deflator)
	dst = d.wrap(dst, payload)
	deflators.Put(d)
	return dst
}

// wrap compresses payload (at most MaxPayload bytes) into a complete
// BGZF member, in dst's backing array when that is large enough, and
// returns it. It cannot fail: the encoder (deflate.go) falls back to a
// stored block, so a member never exceeds MaxBlockSize.
func (d *deflator) wrap(dst, payload []byte) []byte {
	bsize := headerSize + d.plan(payload, maxChain) + footerSize
	if cap(dst) < bsize {
		dst = make([]byte, 0, bsize)
	}
	block := append(dst[:0],
		0x1f, 0x8b, 0x08, 0x04, // magic, deflate, FEXTRA
		0, 0, 0, 0, 0, // MTIME, XFL left zero
		0xff, // OS unknown
		6, 0, // XLEN
		'B', 'C', 2, 0, byte(bsize-1), byte((bsize-1)>>8),
	)
	block = d.emit(block, payload)
	block = binary.LittleEndian.AppendUint32(block, crc32.ChecksumIEEE(payload))
	return binary.LittleEndian.AppendUint32(block, uint32(len(payload)))
}

// blockScanner walks raw BGZF members in file order, reusing its header
// and extra-field scratch across blocks. Its scan step is the one front
// half of the Reader: run on the caller when blocks inflate inline, on
// the scan goroutine that feeds the inflate pool otherwise.
type blockScanner struct {
	r      io.Reader
	hdr    [headerSize]byte
	extra  []byte // reusable FEXTRA scratch
	next   int64  // compressed offset of the next member
	sawEOF bool   // the last member read was empty: the EOF marker, if nothing follows
}

// scan reads the next member into blk: its body (compressed data +
// footer) into blk.raw, grown as needed, and its start and end offsets.
// A clean end of stream at a member boundary is io.EOF after the EOF
// marker and ErrNoEOFMarker otherwise.
func (s *blockScanner) scan(blk *rblock) error {
	blk.start = s.next
	if _, err := io.ReadFull(s.r, s.hdr[:]); err != nil {
		switch {
		case err == io.EOF && s.sawEOF:
			return io.EOF
		case err == io.EOF:
			return ErrNoEOFMarker
		case err == io.ErrUnexpectedEOF:
			return ErrCorrupt
		}
		return err
	}
	if s.hdr[0] != 0x1f || s.hdr[1] != 0x8b || s.hdr[2] != 0x08 || s.hdr[3]&0x04 == 0 {
		return ErrNotBGZF
	}
	xlen := int(binary.LittleEndian.Uint16(s.hdr[10:]))
	if cap(s.extra) < xlen {
		s.extra = make([]byte, xlen)
	}
	extra := s.extra[:xlen]
	copy(extra, s.hdr[12:])
	if xlen > headerSize-12 {
		if _, err := io.ReadFull(s.r, extra[headerSize-12:]); err != nil {
			return ErrCorrupt
		}
	}
	bsize := -1
	for i := 0; i+4 <= len(extra); {
		si1, si2 := extra[i], extra[i+1]
		slen := int(binary.LittleEndian.Uint16(extra[i+2:]))
		if si1 == 'B' && si2 == 'C' && slen == 2 && i+6 <= len(extra) {
			bsize = int(binary.LittleEndian.Uint16(extra[i+4:])) + 1
			break
		}
		i += 4 + slen
	}
	if bsize < 0 {
		return ErrNotBGZF
	}
	rawLen := bsize - 12 - xlen // compressed data + footer
	if rawLen < footerSize {
		return ErrCorrupt
	}
	if cap(blk.raw) < rawLen {
		blk.raw = make([]byte, rawLen)
	}
	raw := blk.raw[:rawLen]
	blk.raw = raw
	already := 0
	if 12+xlen < headerSize {
		// Part of the data was consumed into the fixed-size header buffer.
		already = headerSize - 12 - xlen
		copy(raw, s.hdr[12+xlen:])
	}
	if _, err := io.ReadFull(s.r, raw[already:]); err != nil {
		return ErrCorrupt
	}
	s.next += int64(bsize)
	blk.next = s.next
	// The footer's ISIZE tells whether the member is empty without
	// inflating it; a trailing empty member is the EOF marker.
	s.sawEOF = binary.LittleEndian.Uint32(raw[len(raw)-4:]) == 0
	return nil
}

// codecObs bundles one direction's telemetry handles: block and byte
// throughput counters plus a per-block latency histogram. A nil codecObs
// keeps the codec's hot path free of time.Now calls.
type codecObs struct {
	reg      *obs.Registry // the registry the handles belong to
	blocks   *obs.Counter
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
	latency  *obs.Histogram
}

// The bgzf.deflate.* and bgzf.inflate.* handles, resolved once per
// registry rather than once per stream: a PAMX read opens a Reader per
// column blob.
var deflateObs, inflateObs atomic.Pointer[codecObs]

// codecObsFor returns the bgzf.<dir>.* handles on the default registry
// cached in slot, or nil when telemetry is disabled.
func codecObsFor(slot *atomic.Pointer[codecObs], dir string) *codecObs {
	reg := obs.Default()
	if reg == nil {
		return nil
	}
	if m := slot.Load(); m != nil && m.reg == reg {
		return m
	}
	prefix := "bgzf." + dir
	m := &codecObs{
		reg:      reg,
		blocks:   reg.Counter(prefix + ".blocks"),
		bytesIn:  reg.Counter(prefix + ".bytes_in"),
		bytesOut: reg.Counter(prefix + ".bytes_out"),
		latency:  reg.Histogram(prefix + ".latency_ns"),
	}
	slot.Store(m)
	return m
}

// observe accounts one block that took d: in bytes in, out bytes out. A
// nil receiver no-ops.
func (m *codecObs) observe(d time.Duration, in, out int) {
	if m == nil {
		return
	}
	m.latency.Observe(d.Nanoseconds())
	m.blocks.Add(1)
	m.bytesIn.Add(int64(in))
	m.bytesOut.Add(int64(out))
}

// maxAutoWorkers caps the adaptive default. Past ~8 workers a BGZF
// pool saturates memory bandwidth before CPU, and a process commonly
// runs several pools at once (reader, writer, record decoder); an
// explicit worker count still goes uncapped.
const maxAutoWorkers = 8

// gomaxprocs is runtime.GOMAXPROCS, indirected so tests can pin the
// apparent CPU count when exercising the adaptive worker default.
var gomaxprocs = runtime.GOMAXPROCS

// AutoWorkers is the adaptive worker count: one worker per available
// CPU, capped so stacked pools do not oversubscribe the machine. It sizes
// SharedPool and the read-ahead of a reader whose count is ≤ 0; on a
// single-CPU host it resolves to 1, the caller.
func AutoWorkers() int { return min(gomaxprocs(0), maxAutoWorkers) }

// pipeDepth bounds in-flight blocks per pipeline: enough read-ahead to
// keep every worker busy across scheduling hiccups, small enough to cap
// memory at a few MiB of 64 KiB blocks.
func pipeDepth(workers int) int { return 4 * workers }
