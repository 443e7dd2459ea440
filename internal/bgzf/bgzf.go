// Package bgzf implements the BGZF blocked-gzip format BAM files are
// stored in: a series of independent RFC-1952 gzip members, each carrying
// a "BC" extra subfield recording the compressed block size so readers can
// skip between blocks without inflating them. Independent blocks are what
// make BAM indexable — a (block offset, intra-block offset) pair, the
// virtual file offset, addresses any record. Block independence is also
// what makes the format parallelisable: see ParallelWriter and
// ParallelReader for the pipelined multi-worker codec.
package bgzf

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

const (
	// MaxBlockSize is the maximum size of one compressed BGZF block,
	// including the gzip wrapping, fixed by the specification.
	MaxBlockSize = 0x10000
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

// BlockReader is the decompression interface both the sequential Reader
// and the ParallelReader satisfy; consumers such as the BAM codec are
// agnostic to which one feeds them.
type BlockReader interface {
	io.Reader
	Offset() VOffset
	Seek(VOffset) error
}

// BlockWriter is the compression interface both the sequential Writer
// and the ParallelWriter satisfy.
type BlockWriter interface {
	io.Writer
	Offset() VOffset
	Flush() error
	Close() error
}

// BlockSource is the zero-copy face both readers present on top of
// BlockReader: whole inflated blocks are handed to the caller, who
// parses them in place instead of draining them through Read's copy
// loop, and hands buffers back through Recycle. It is the read-side
// foundation of the parallel BAM record decoder (internal/bam).
type BlockSource interface {
	BlockReader
	// NextBlock returns the unread remainder of the current block — or
	// the next non-empty block — without copying, together with the
	// virtual offset of its first byte. Ownership of the slice passes
	// to the caller until it is returned via Recycle. The stream
	// position advances past the returned bytes, so NextBlock and Read
	// calls may be interleaved. At the end of the stream it returns
	// io.EOF.
	NextBlock() (data []byte, off VOffset, err error)
	// Recycle hands a NextBlock buffer back for reuse. Optional —
	// skipping it only costs allocations.
	Recycle([]byte)
}

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

// Writer compresses a stream into BGZF blocks. Close writes the EOF
// marker block; forgetting it produces a file readers reject.
type Writer struct {
	w       io.Writer
	buf     []byte // pending uncompressed bytes, ≤ blockPayload
	payload int    // configured uncompressed bytes per block
	block   []byte // reusable wrapped-block buffer
	offset  int64  // compressed bytes written so far
	err     error
}

// NewWriter returns a BGZF writer using the maximum per-block payload.
func NewWriter(w io.Writer) *Writer {
	return NewWriterSize(w, MaxPayload)
}

// NewWriterSize returns a BGZF writer with an explicit per-block
// uncompressed payload size (clamped to [1, MaxPayload]). Smaller
// payloads trade compression ratio for finer random-access granularity.
func NewWriterSize(w io.Writer, payload int) *Writer {
	payload = clampPayload(payload)
	return &Writer{w: w, payload: payload, buf: make([]byte, 0, payload)}
}

// clampPayload applies the block-size validation both writers share.
func clampPayload(payload int) int {
	if payload <= 0 || payload > MaxPayload {
		return MaxPayload
	}
	return payload
}

// Offset returns the virtual offset the next written byte will have.
func (w *Writer) Offset() VOffset {
	return MakeVOffset(w.offset, len(w.buf))
}

// Write buffers p, flushing completed blocks as the payload size is
// reached.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n := len(p)
	for len(p) > 0 {
		space := w.payload - len(w.buf)
		if space == 0 {
			if err := w.Flush(); err != nil {
				return n - len(p), err
			}
			space = w.payload
		}
		if space > len(p) {
			space = len(p)
		}
		w.buf = append(w.buf, p[:space]...)
		p = p[space:]
	}
	return n, nil
}

// Flush writes any buffered bytes as one block. It is a no-op when the
// buffer is empty, so files never contain spurious empty data blocks.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	w.block = wrapBlock(w.block, w.buf)
	if _, err := w.w.Write(w.block); err != nil {
		w.err = err
		return err
	}
	w.offset += int64(len(w.block))
	w.buf = w.buf[:0]
	return nil
}

// Close flushes pending data and writes the EOF marker.
func (w *Writer) Close() error {
	if err := w.Flush(); err != nil {
		return err
	}
	if _, err := w.w.Write(eofMarker); err != nil {
		w.err = err
		return err
	}
	w.offset += int64(len(eofMarker))
	w.err = errors.New("bgzf: writer closed")
	return nil
}

// blockScanner reads raw BGZF members sequentially, reusing its header
// and extra-field scratch across blocks. It is the shared front half of
// both readers: the sequential Reader inflates each member in place, the
// ParallelReader's scan goroutine hands members to inflate workers.
type blockScanner struct {
	r     io.Reader
	hdr   [headerSize]byte
	extra []byte // reusable FEXTRA scratch
}

// next reads one compressed member into raw (grown as needed), returning
// the member body (compressed data + footer) and the member's total
// on-disk size. A clean end of stream at a member boundary returns
// io.EOF; the caller decides whether the EOF marker was seen.
func (s *blockScanner) next(raw []byte) ([]byte, int, error) {
	if _, err := io.ReadFull(s.r, s.hdr[:]); err != nil {
		if err == io.EOF {
			return raw, 0, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return raw, 0, ErrCorrupt
		}
		return raw, 0, err
	}
	if s.hdr[0] != 0x1f || s.hdr[1] != 0x8b || s.hdr[2] != 0x08 || s.hdr[3]&0x04 == 0 {
		return raw, 0, ErrNotBGZF
	}
	xlen := int(binary.LittleEndian.Uint16(s.hdr[10:]))
	if cap(s.extra) < xlen {
		s.extra = make([]byte, xlen)
	}
	extra := s.extra[:xlen]
	copy(extra, s.hdr[12:])
	if xlen > headerSize-12 {
		if _, err := io.ReadFull(s.r, extra[headerSize-12:]); err != nil {
			return raw, 0, ErrCorrupt
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
		return raw, 0, ErrNotBGZF
	}
	rawLen := bsize - 12 - xlen // compressed data + footer
	if rawLen < footerSize {
		return raw, 0, ErrCorrupt
	}
	if cap(raw) < rawLen {
		raw = make([]byte, rawLen)
	}
	raw = raw[:rawLen]
	already := 0
	if 12+xlen < headerSize {
		// Part of the data was consumed into the fixed-size header buffer.
		already = headerSize - 12 - xlen
		copy(raw, s.hdr[12+xlen:])
	}
	if _, err := io.ReadFull(s.r, raw[already:]); err != nil {
		return raw, 0, ErrCorrupt
	}
	return raw, bsize, nil
}

// inflater owns one reusable flate reader and decompresses member bodies
// produced by blockScanner.next, verifying ISIZE and CRC32.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
}

// inflate decompresses the member body raw into dst[:0] and returns it.
func (inf *inflater) inflate(dst, raw []byte) ([]byte, error) {
	compressed, footer := raw[:len(raw)-footerSize], raw[len(raw)-footerSize:]
	wantCRC := binary.LittleEndian.Uint32(footer)
	isize := binary.LittleEndian.Uint32(footer[4:])
	if isize > MaxBlockSize {
		// The spec bounds uncompressed blocks at 64 KiB; a larger ISIZE is
		// corruption and must not drive the allocation below.
		return dst[:0], fmt.Errorf("%w: ISIZE %d exceeds format limit", ErrCorrupt, isize)
	}
	inf.src.Reset(compressed)
	if inf.fr == nil {
		inf.fr = flate.NewReader(&inf.src)
	} else if err := inf.fr.(flate.Resetter).Reset(&inf.src, nil); err != nil {
		return dst[:0], err
	}
	if cap(dst) < int(isize) {
		dst = make([]byte, isize)
	}
	dst = dst[:isize]
	if _, err := io.ReadFull(inf.fr, dst); err != nil {
		return dst, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// The member must contain no more than ISIZE bytes.
	var one [1]byte
	if n, _ := inf.fr.Read(one[:]); n != 0 {
		return dst, fmt.Errorf("%w: block longer than ISIZE", ErrCorrupt)
	}
	if crc32.ChecksumIEEE(dst) != wantCRC {
		return dst, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return dst, nil
}

// Reader decompresses a BGZF stream block by block. When the underlying
// reader is an io.ReadSeeker, Seek to a virtual offset is supported.
type Reader struct {
	scan       blockScanner
	inf        inflater
	rs         io.ReadSeeker // non-nil when seeking is possible
	block      []byte        // current uncompressed block
	raw        []byte        // reusable compressed-block buffer
	spareMu    sync.Mutex    // guards spare: Recycle may run on another goroutine
	spare      [][]byte      // Recycle'd block buffers awaiting reuse
	pos        int           // read position within block
	blockStart int64         // compressed offset of current block
	nextStart  int64         // compressed offset of next block
	sawEOF     bool
	err        error
}

// NewReader wraps r. When r is an io.ReadSeeker the returned reader
// supports Seek.
func NewReader(r io.Reader) *Reader {
	br := &Reader{scan: blockScanner{r: r}}
	if rs, ok := r.(io.ReadSeeker); ok {
		br.rs = rs
	}
	return br
}

// Offset returns the virtual offset of the next byte Read will return.
func (r *Reader) Offset() VOffset { return MakeVOffset(r.blockStart, r.pos) }

// readBlock loads the next non-empty block into r.block. It returns
// io.EOF at the end of the stream (after the EOF marker). Empty blocks
// are verified and skipped in a loop — a loop, not recursion, so a
// crafted file holding millions of consecutive empty members cannot
// overflow the stack.
func (r *Reader) readBlock() error {
	for {
		r.blockStart = r.nextStart
		raw, bsize, err := r.scan.next(r.raw[:0])
		r.raw = raw
		if err == io.EOF {
			if !r.sawEOF {
				return ErrNoEOFMarker
			}
			return io.EOF
		}
		if err != nil {
			return err
		}
		if r.block, err = r.inf.inflate(r.block[:0], raw); err != nil {
			return err
		}
		r.pos = 0
		r.nextStart = r.blockStart + int64(bsize)
		r.sawEOF = len(r.block) == 0
		if !r.sawEOF {
			return nil
		}
		// Empty block: could be the EOF marker; keep reading — a following
		// block resets sawEOF, trailing EOF terminates cleanly.
	}
}

// Read implements io.Reader over the decompressed stream.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	total := 0
	for len(p) > 0 {
		if r.pos == len(r.block) {
			if err := r.readBlock(); err != nil {
				r.err = err
				if total > 0 && err == io.EOF {
					return total, nil
				}
				return total, err
			}
		}
		n := copy(p, r.block[r.pos:])
		r.pos += n
		p = p[n:]
		total += n
	}
	return total, nil
}

// NextBlock implements BlockSource: it returns the unread remainder of
// the current block, or loads and returns the next non-empty one,
// detaching the buffer so the caller can parse it in place. The
// sequential codec gains no concurrency from this, but sharing the
// interface lets block-level consumers (the parallel BAM decoder) run
// unchanged over either reader.
func (r *Reader) NextBlock() ([]byte, VOffset, error) {
	if r.err != nil {
		return nil, 0, r.err
	}
	for r.pos == len(r.block) {
		if err := r.readBlock(); err != nil {
			r.err = err
			return nil, 0, err
		}
	}
	data := r.block[r.pos:]
	off := MakeVOffset(r.blockStart, r.pos)
	// Detach the buffer; the next readBlock inflates into a recycled
	// spare (or allocates when none is available).
	r.block = nil
	r.spareMu.Lock()
	if n := len(r.spare); n > 0 {
		r.block, r.spare = r.spare[n-1], r.spare[:n-1]
	}
	r.spareMu.Unlock()
	r.blockStart = r.nextStart
	r.pos = 0
	return data, off, nil
}

// Recycle implements BlockSource, handing a NextBlock buffer back for
// reuse. The free list is small and bounded: the zero-copy consumers
// hold at most a couple of blocks at a time. Like the parallel
// reader's, Recycle is safe to call from a goroutine other than the
// consumer — the parallel record decoder recycles from its drain side.
func (r *Reader) Recycle(b []byte) {
	if cap(b) == 0 {
		return
	}
	r.spareMu.Lock()
	if len(r.spare) < 4 {
		r.spare = append(r.spare, b[:0])
	}
	r.spareMu.Unlock()
}

// Seek positions the reader at a virtual offset. It requires the
// underlying reader to be an io.ReadSeeker.
func (r *Reader) Seek(v VOffset) error {
	if r.rs == nil {
		return errors.New("bgzf: underlying reader is not seekable")
	}
	if _, err := r.rs.Seek(v.Block(), io.SeekStart); err != nil {
		return err
	}
	r.err = nil
	r.block = r.block[:0]
	r.pos = 0
	r.nextStart = v.Block()
	r.sawEOF = false
	if err := r.readBlock(); err != nil {
		r.err = err
		return err
	}
	if v.Intra() > len(r.block) {
		return fmt.Errorf("%w: intra-block offset %d beyond block of %d bytes",
			ErrCorrupt, v.Intra(), len(r.block))
	}
	r.pos = v.Intra()
	return nil
}

// HasEOFMarker checks (without disturbing the stream position) whether a
// ReadSeeker ends with the canonical BGZF EOF block.
func HasEOFMarker(rs io.ReadSeeker) (bool, error) {
	cur, err := rs.Seek(0, io.SeekCurrent)
	if err != nil {
		return false, err
	}
	defer rs.Seek(cur, io.SeekStart)
	end, err := rs.Seek(0, io.SeekEnd)
	if err != nil {
		return false, err
	}
	if end < int64(len(eofMarker)) {
		return false, nil
	}
	if _, err := rs.Seek(end-int64(len(eofMarker)), io.SeekStart); err != nil {
		return false, err
	}
	tail := make([]byte, len(eofMarker))
	if _, err := io.ReadFull(rs, tail); err != nil {
		return false, err
	}
	return bytes.Equal(tail, eofMarker), nil
}
