package bgzf

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"parseq/internal/obs"
	"parseq/internal/parpipe"
)

// rblock is one member on its way through a Reader: the raw member from
// the scan step, then the verified payload from inflate.
type rblock struct {
	start int64  // compressed file offset of the member
	next  int64  // compressed file offset of the following member
	raw   []byte // compressed data + footer
	data  []byte // inflated payload; nil once NextBlock detached it
	err   error  // the scan or inflate error, io.EOF at the end of the stream
}

// Reader decompresses a BGZF stream block by block. Where blocks inflate
// is fixed by the constructor: on the caller (NewReader), or where the
// worker count places them (NewParallelReader; see the package comment),
// which off the caller is a worker pool fed by a scan goroutine that
// reads members ahead of the consumer. Blocks are delivered in file
// order either way, so the bytes, virtual offsets and first error are
// the same. When the underlying reader is an io.ReadSeeker, Seek to a
// virtual offset is supported.
//
// Besides Read, NextBlock hands whole inflated blocks to the caller, who
// parses them in place and hands the buffers back through Recycle — the
// read-side foundation of the BAM record scanners (internal/bam).
//
// A Reader serves one consuming goroutine; only Recycle may run on
// another. A pooled Reader owns goroutines: Close it when abandoning the
// stream before EOF.
type Reader struct {
	scan blockScanner  // the inline scan state; scan.r is the stream
	rs   io.ReadSeeker // non-nil when seeking is possible
	met  *codecObs     // nil when telemetry is disabled

	cur        *rblock // block being consumed; nil between blocks
	pos        int     // read position within cur.data
	blockStart int64   // compressed offset of the block Offset reports
	err        error   // sticky: end of stream, codec error, failed Seek, Close

	own rblock // inline: the one block, scanned and inflated on the caller

	// Pooled mode: one scan goroutine + inflate pipeline generation at a
	// time, replaced by Seek.
	workers int // 0 inline
	reg     *obs.Registry
	pipe    *parpipe.Pipe[*rblock]
	cancel  *atomic.Bool // the current generation's stop flag
	blocks  sync.Pool    // *rblock with their raw and data buffers

	spareMu sync.Mutex
	spare   [][]byte // Recycle'd buffers awaiting reuse
}

// NewReader wraps r, inflating blocks on the caller: one allocation, no
// goroutine. When r is an io.ReadSeeker the returned reader supports
// Seek.
func NewReader(r io.Reader) *Reader {
	br := &Reader{scan: blockScanner{r: r}, met: codecObsFor(&inflateObs, "inflate")}
	br.rs, _ = r.(io.ReadSeeker)
	return br
}

// NewParallelReader wraps r, inflating where workers places the blocks:
// on the caller at 1; above 1 with block read-ahead, a scan goroutine
// walking the members (cheap — the BC subfield gives each block's size
// without inflating it) and a private pool of that many workers
// decompressing and CRC-checking them concurrently; at ≤ 0 with
// read-ahead on AutoWorkers() workers, or on the caller when that is 1.
// Read-ahead starts at the first block the reader needs, so a Seek
// before the first read costs no block at the stream's start.
func NewParallelReader(r io.Reader, workers int) *Reader {
	br := NewReader(r)
	if workers <= 0 {
		workers = AutoWorkers()
	}
	if workers == 1 {
		return br
	}
	br.workers = workers
	br.reg = obs.Default()
	br.blocks.New = func() any { return new(rblock) }
	return br
}

// start launches a scan goroutine + inflate pipeline generation beginning
// at the scan position.
func (r *Reader) start() {
	r.cancel = &atomic.Bool{}
	r.pipe = parpipe.NewObserved(r.workers, pipeDepth(r.workers), r.inflate, r.reg, "bgzf.inflate")
	go r.scanLoop(r.pipe, r.cancel, r.scan.next)
}

// scanLoop runs the scan step over a prefetcher — so the file read of
// the next chunk overlaps member parsing and inflation — and feeds the
// members to the inflate workers in file order. It ends by submitting
// the block that carries io.EOF, ErrNoEOFMarker or the scan error.
//
// Defer order matters for Seek: the prefetcher is joined *before* the
// pipeline closes, so once halt sees the output channel close, no
// goroutine of this generation can still touch the underlying reader.
func (r *Reader) scanLoop(pipe *parpipe.Pipe[*rblock], cancel *atomic.Bool, at int64) {
	defer pipe.Close()
	pf := newPrefetcher(r.scan.r, r.reg)
	defer pf.Close()
	scan := blockScanner{r: pf, next: at}
	for !cancel.Load() {
		blk := r.blocks.Get().(*rblock)
		err := scan.scan(blk)
		blk.err = err
		pipe.Submit(blk) // blk belongs to the pipeline from here on
		if err != nil {
			return
		}
	}
}

// inflate decompresses and CRC-checks one scanned member — the pipeline's
// job when pooled, a plain call inline — into its own buffer, or a
// recycled one when NextBlock detached that. A block whose scan failed
// passes through untouched.
func (r *Reader) inflate(blk *rblock) {
	if blk.err != nil {
		return
	}
	if blk.data == nil {
		r.spareMu.Lock()
		if n := len(r.spare); n > 0 {
			blk.data, r.spare = r.spare[n-1], r.spare[:n-1]
		}
		r.spareMu.Unlock()
	}
	var t0 time.Time
	if r.met != nil {
		t0 = time.Now()
	}
	blk.data, blk.err = unwrapBlock(blk.data[:0], blk.raw)
	if r.met != nil {
		out := len(blk.data)
		if blk.err != nil {
			out = 0
		}
		r.met.observe(time.Since(t0), len(blk.raw), out)
	}
}

// advance makes the next member current: scanned and inflated here when
// inline, taken from the pipeline when pooled. Empty members, the EOF
// marker among them, become current like any other.
func (r *Reader) advance() error {
	r.release()
	var blk *rblock
	if r.workers == 0 {
		blk = &r.own
		blk.err = r.scan.scan(blk)
		r.inflate(blk)
	} else {
		if r.pipe == nil {
			r.start()
		}
		b, ok := <-r.pipe.Out()
		if !ok {
			// The scan loop always submits a final block before closing, so
			// a bare close only follows its delivery.
			return io.EOF
		}
		blk = b
	}
	r.cur, r.pos = blk, 0
	if err := blk.err; err != nil {
		r.release() // blk may be rescanned from here on
		return err
	}
	r.blockStart = blk.start
	return nil
}

// release retires the current block: a pooled one goes back to the block
// pool; the inline one stays for the next scan.
func (r *Reader) release() {
	if r.cur != nil && r.cur != &r.own {
		r.blocks.Put(r.cur)
	}
	r.cur = nil
}

// Offset returns the virtual offset of the next byte Read will return.
func (r *Reader) Offset() VOffset { return MakeVOffset(r.blockStart, r.pos) }

// Read implements io.Reader over the decompressed stream.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	total := 0
	for len(p) > 0 {
		if r.cur == nil || r.pos == len(r.cur.data) {
			if err := r.advance(); err != nil {
				r.err = err
				if total > 0 && err == io.EOF {
					return total, nil
				}
				return total, err
			}
			continue
		}
		n := copy(p, r.cur.data[r.pos:])
		r.pos += n
		p = p[n:]
		total += n
	}
	return total, nil
}

// NextBlock returns the unread remainder of the current block — or the
// next non-empty block — without copying, together with the virtual
// offset of its first byte. Ownership of the slice passes to the caller
// until it is handed back through Recycle. The stream position advances
// past the returned bytes, so NextBlock and Read calls may be
// interleaved. At the end of the stream it returns io.EOF.
func (r *Reader) NextBlock() ([]byte, VOffset, error) {
	if r.err != nil {
		return nil, 0, r.err
	}
	for {
		if blk := r.cur; blk != nil && r.pos < len(blk.data) {
			data, off := blk.data[r.pos:], MakeVOffset(blk.start, r.pos)
			blk.data = nil // detached: the caller owns the bytes now
			r.blockStart, r.pos = blk.next, 0
			r.release()
			return data, off, nil
		}
		if err := r.advance(); err != nil {
			r.err = err
			return nil, 0, err
		}
	}
}

// Recycle hands a NextBlock buffer back for reuse. It is optional —
// skipping it only costs allocations — and safe to call from a goroutine
// other than the consumer (the parallel record decoder recycles from its
// drain side). The free list is bounded by the blocks a reader holds in
// flight.
func (r *Reader) Recycle(b []byte) {
	if cap(b) == 0 {
		return
	}
	r.spareMu.Lock()
	if len(r.spare) < 4+pipeDepth(r.workers) {
		r.spare = append(r.spare, b[:0])
	}
	r.spareMu.Unlock()
}

// Seek positions the reader at a virtual offset. It requires the
// underlying reader to be an io.ReadSeeker. A pooled reader drains its
// pipeline first — which joins the prefetcher, so no stale readahead or
// in-flight read survives — and starts a fresh one at the target block.
// A failed Seek is sticky: Read and NextBlock return its error until a
// later Seek succeeds.
func (r *Reader) Seek(v VOffset) error {
	r.err = r.seek(v)
	return r.err
}

func (r *Reader) seek(v VOffset) error {
	if r.rs == nil {
		return errors.New("bgzf: underlying reader is not seekable")
	}
	r.halt()
	if _, err := r.rs.Seek(v.Block(), io.SeekStart); err != nil {
		return err
	}
	r.scan.next, r.scan.sawEOF, r.blockStart = v.Block(), false, v.Block()
	// Load the first non-empty block to validate the intra offset.
	for r.cur == nil || len(r.cur.data) == 0 {
		if err := r.advance(); err != nil {
			return err
		}
	}
	if v.Intra() > len(r.cur.data) {
		return fmt.Errorf("%w: intra-block offset %d beyond block of %d bytes",
			ErrCorrupt, v.Intra(), len(r.cur.data))
	}
	r.pos = v.Intra()
	return nil
}

// halt releases the current block and, when pooled, cancels the scan
// loop and drains every in-flight block, leaving no goroutine behind.
func (r *Reader) halt() {
	r.release()
	if r.pipe == nil {
		return
	}
	r.cancel.Store(true)
	for blk := range r.pipe.Out() {
		r.blocks.Put(blk)
	}
	r.pipe = nil
}

// Close stops a pooled reader's goroutines. The reader must not be used
// afterwards: Read and NextBlock report it closed.
func (r *Reader) Close() error {
	r.halt()
	r.err = errors.New("bgzf: reader closed")
	return nil
}
