// Parallel BGZF codec. BGZF blocks are independent gzip members, so the
// expensive halves of the codec — deflate on the write side, inflate +
// CRC on the read side — parallelise block-for-block. Both directions
// use the same shape: a bounded worker pool fed in stream order, with
// results reassembled in the same order (internal/parpipe), so the bytes
// on disk, the virtual offsets, and the first error surfaced are all
// bit-identical to the sequential codec.

package bgzf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parseq/internal/obs"
	"parseq/internal/parpipe"
)

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

// newCodecObs registers the bgzf.<dir>.* metrics, or returns nil when
// telemetry is disabled.
func newCodecObs(reg *obs.Registry, dir string) *codecObs {
	if reg == nil {
		return nil
	}
	prefix := "bgzf." + dir
	return &codecObs{
		reg:      reg,
		blocks:   reg.Counter(prefix + ".blocks"),
		bytesIn:  reg.Counter(prefix + ".bytes_in"),
		bytesOut: reg.Counter(prefix + ".bytes_out"),
		latency:  reg.Histogram(prefix + ".latency_ns"),
	}
}

// observe accounts one deflated block that took d: in payload bytes, out
// member bytes. A nil receiver no-ops.
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

// resolveWorkers applies the worker-count convention shared by the
// parallel codec constructors: n > 0 is taken as given, anything else
// means one worker per available CPU, capped at maxAutoWorkers.
func resolveWorkers(n int) int {
	if n > 0 {
		return n
	}
	if p := gomaxprocs(0); p < maxAutoWorkers {
		return p
	}
	return maxAutoWorkers
}

// AutoWorkers is the adaptive default worker count used across the
// tree when a codec/decoder knob is left at zero: one worker per
// available CPU, capped so stacked pools do not oversubscribe the
// machine. On a single-CPU host it resolves to 1, which every
// constructor treats as the sequential path.
func AutoWorkers() int { return resolveWorkers(0) }

// pipeDepth bounds in-flight blocks per pipeline: enough read-ahead to
// keep every worker busy across scheduling hiccups, small enough to cap
// memory at a few MiB of 64 KiB blocks.
func pipeDepth(workers int) int { return 4 * workers }

// wblock is one write-side unit of work: a buffered payload on the way
// in, a wrapped BGZF member on the way out.
type wblock struct {
	payload []byte // uncompressed payload (owned by the block)
	block   []byte // compressed, wrapped member
}

// ParallelWriter compresses a stream into BGZF blocks on a bounded
// worker pool. Blocks are deflated concurrently and written to the
// underlying writer in submission order, so the output is byte-identical
// to the sequential Writer's. The writer itself is not safe for
// concurrent Write calls — like the sequential codec it serves one
// producing goroutine, parallelising underneath.
type ParallelWriter struct {
	w       io.Writer
	payload int

	buf  []byte // pending uncompressed bytes, ≤ payload
	pipe *parpipe.Pipe[*wblock]

	blkPool sync.Pool // *wblock, recycled payload+block buffers

	mu        sync.Mutex
	cond      *sync.Cond
	unsized   int   // submitted blocks not yet size-accounted
	submitted int64 // blocks handed to the pipeline
	consumed  int64 // blocks the drain goroutine has retired
	offset    int64 // compressed bytes of every sized block
	werr      error // first error in stream order
	closed    bool

	drained chan struct{}

	met   *codecObs  // nil when telemetry is disabled
	sizer *poolSizer // non-nil on SharedPool-attached writers
}

// NewParallelWriter returns a parallel BGZF writer using the maximum
// per-block payload. workers ≤ 0 selects one worker per CPU.
func NewParallelWriter(w io.Writer, workers int) *ParallelWriter {
	return NewParallelWriterSize(w, MaxPayload, workers)
}

// NewParallelWriterSize is NewWriterSize with a worker pool: explicit
// per-block payload size and worker count (≤ 0 means one per CPU).
func NewParallelWriterSize(w io.Writer, payload, workers int) *ParallelWriter {
	workers = resolveWorkers(workers)
	pw := newParallelWriter(w, payload)
	pw.pipe = parpipe.NewObserved(workers, pipeDepth(workers), pw.compress, obs.Default(), "bgzf.deflate")
	go pw.drain()
	return pw
}

// newParallelWriter builds the writer body shared by the private-pool
// and SharedPool constructors; the caller attaches the pipe and starts
// the drain goroutine.
func newParallelWriter(w io.Writer, payload int) *ParallelWriter {
	payload = clampPayload(payload)
	pw := &ParallelWriter{
		w:       w,
		payload: payload,
		buf:     make([]byte, 0, payload),
		drained: make(chan struct{}),
	}
	pw.cond = sync.NewCond(&pw.mu)
	pw.blkPool.New = func() any { return &wblock{} }
	pw.met = newCodecObs(obs.Default(), "deflate")
	return pw
}

// compress is the worker function: wrap one payload into a BGZF member.
// The compressed size is accounted as soon as it is known so Offset can
// resolve without waiting for the block to reach the underlying writer.
func (w *ParallelWriter) compress(b *wblock) {
	var t0 time.Time
	if w.met != nil || w.sizer != nil {
		t0 = time.Now()
	}
	b.block = wrapBlock(b.block, b.payload)
	if w.met != nil {
		w.met.observe(time.Since(t0), len(b.payload), len(b.block))
	}
	if w.sizer != nil {
		w.sizer.observe(len(b.payload), time.Since(t0))
	}
	w.mu.Lock()
	w.offset += int64(len(b.block))
	w.unsized--
	w.cond.Broadcast()
	w.mu.Unlock()
}

// drain retires compressed blocks in submission order, writing them to
// the underlying writer. After the first error — a failed compression or
// a failed write, whichever comes first in *stream* order — remaining
// blocks are consumed and discarded so the pipeline always empties.
func (w *ParallelWriter) drain() {
	defer close(w.drained)
	for b := range w.pipe.Out() {
		w.mu.Lock()
		err := w.werr
		w.mu.Unlock()
		if err == nil {
			if _, err = w.w.Write(b.block); err != nil {
				w.mu.Lock()
				w.werr = err
				w.mu.Unlock()
			}
		}
		b.payload = b.payload[:0]
		w.blkPool.Put(b)
		w.mu.Lock()
		w.consumed++
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}

// errNow snapshots the sticky error.
func (w *ParallelWriter) errNow() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.werr
}

// submit hands the full buffer to the pipeline, swapping in a recycled
// buffer so the hot path never copies payload bytes.
func (w *ParallelWriter) submit() {
	blk := w.blkPool.Get().(*wblock)
	blk.payload, w.buf = w.buf, blk.payload[:0]
	if cap(w.buf) < w.payload {
		w.buf = make([]byte, 0, w.payload)
	}
	w.mu.Lock()
	w.unsized++
	w.submitted++
	w.mu.Unlock()
	w.pipe.Submit(blk)
}

// Offset returns the virtual offset the next written byte will have. It
// waits until every in-flight block's compressed size is known — but not
// for the blocks to be written — so the value matches the sequential
// writer's exactly.
func (w *ParallelWriter) Offset() VOffset {
	w.mu.Lock()
	for w.unsized > 0 {
		w.cond.Wait()
	}
	off := w.offset
	w.mu.Unlock()
	return MakeVOffset(off, len(w.buf))
}

// Write buffers p, handing completed payloads to the worker pool. Like
// the sequential writer it flushes lazily — a buffer is only submitted
// when the next byte needs its space — so block boundaries and Offset
// values agree between the two codecs for identical Write sequences.
func (w *ParallelWriter) Write(p []byte) (int, error) {
	if err := w.errNow(); err != nil {
		return 0, err
	}
	n := len(p)
	for len(p) > 0 {
		space := w.payload - len(w.buf)
		if space == 0 {
			w.submit()
			if err := w.errNow(); err != nil {
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

// Flush submits any buffered bytes as one block and waits for every
// submitted block to reach the underlying writer.
func (w *ParallelWriter) Flush() error {
	if err := w.errNow(); err != nil {
		return err
	}
	if len(w.buf) > 0 {
		w.submit()
	}
	w.mu.Lock()
	for w.consumed < w.submitted {
		w.cond.Wait()
	}
	err := w.werr
	w.mu.Unlock()
	return err
}

// Close flushes pending data, shuts the worker pool down, and writes the
// EOF marker.
func (w *ParallelWriter) Close() error {
	w.mu.Lock()
	if w.closed {
		err := w.werr
		w.mu.Unlock()
		return err
	}
	w.closed = true
	w.mu.Unlock()
	err := w.Flush()
	w.pipe.Close()
	<-w.drained
	w.mu.Lock()
	if err == nil {
		err = w.werr
	}
	if err == nil {
		if _, werr := w.w.Write(eofMarker); werr != nil {
			err = werr
			w.werr = werr
		} else {
			w.offset += int64(len(eofMarker))
		}
	}
	if w.werr == nil {
		w.werr = errors.New("bgzf: writer closed")
	}
	w.mu.Unlock()
	return err
}

// rblock is one read-side unit of work: a raw member on the way in, the
// verified uncompressed block on the way out.
type rblock struct {
	start int64  // compressed file offset of the member
	next  int64  // compressed file offset of the following member
	raw   []byte // compressed data + footer (owned by the block)
	data  []byte // decompressed payload (detachable via NextBlock)
	err   error
}

// ParallelReader decompresses a BGZF stream with block read-ahead: a
// scan goroutine walks the compressed members sequentially (cheap — the
// BC subfield gives each block's size without inflating it) and a worker
// pool inflates and CRC-checks them concurrently. Blocks are delivered
// in file order, so Read, Offset and error behaviour are identical to
// the sequential Reader. Seek drains the pipeline and restarts it at the
// target virtual offset, preserving the partial-conversion path.
//
// A ParallelReader owns goroutines; call Close when abandoning it before
// EOF, or the read-ahead pipeline is left parked. Like the sequential
// codec it serves one consuming goroutine.
type ParallelReader struct {
	r       io.Reader
	rs      io.ReadSeeker // non-nil when seeking is possible
	workers int

	pipe *parpipe.Pipe[*rblock]
	stop *atomic.Bool // current scan generation's cancel flag

	cur        *rblock
	pos        int
	blockStart int64
	err        error

	blkPool  sync.Pool // *rblock, recycled raw buffers
	dataPool sync.Pool // []byte inflated-payload buffers (NextBlock recycling)
	infPool  sync.Pool // *inflater, one per active worker

	reg *obs.Registry // registry at construction time (may be nil)
	met *codecObs     // nil when telemetry is disabled
}

// NewParallelReader wraps r with a pool of `workers` inflate workers
// (≤ 0 means one per CPU). When r is an io.ReadSeeker the returned
// reader supports Seek.
func NewParallelReader(r io.Reader, workers int) *ParallelReader {
	pr := &ParallelReader{r: r, workers: resolveWorkers(workers)}
	if rs, ok := r.(io.ReadSeeker); ok {
		pr.rs = rs
	}
	pr.blkPool.New = func() any { return &rblock{} }
	pr.infPool.New = func() any { return &inflater{} }
	pr.reg = obs.Default()
	pr.met = newCodecObs(pr.reg, "inflate")
	pr.start(0)
	return pr
}

// start launches a scan goroutine + worker pool generation beginning at
// compressed offset `at`.
func (r *ParallelReader) start(at int64) {
	stop := &atomic.Bool{}
	pipe := parpipe.NewObserved(r.workers, pipeDepth(r.workers), r.inflateBlock, r.reg, "bgzf.inflate")
	r.stop = stop
	r.pipe = pipe
	go r.scanLoop(pipe, stop, at)
}

// scanLoop reads raw members in file order and feeds the worker pool.
// The raw bytes come through a prefetcher, so the file read of the next
// chunk overlaps with member parsing and inflation. Empty members are
// submitted too — the workers verify their CRCs just as the sequential
// codec does — but EOF-marker bookkeeping happens here because it
// depends on member order. The loop ends by submitting a sentinel block
// carrying io.EOF, ErrNoEOFMarker, or the scan error.
//
// Defer order matters for Seek: the prefetcher is joined *before* the
// pipeline closes, so once drainPipeline sees the output channel close,
// no goroutine of this generation can still touch the underlying
// reader and Seek may reposition it.
func (r *ParallelReader) scanLoop(pipe *parpipe.Pipe[*rblock], stop *atomic.Bool, at int64) {
	defer pipe.Close()
	pf := newPrefetcher(r.r, r.reg)
	defer pf.Close()
	scan := blockScanner{r: pf}
	next := at
	sawEOF := false
	for !stop.Load() {
		blk := r.blkPool.Get().(*rblock)
		blk.start = next
		blk.data = r.dataBuf()
		blk.err = nil
		raw, bsize, err := scan.next(blk.raw[:0])
		blk.raw = raw
		if err == io.EOF {
			if !sawEOF {
				err = ErrNoEOFMarker
			}
			blk.err = err
			pipe.Submit(blk)
			return
		}
		if err != nil {
			blk.err = err
			pipe.Submit(blk)
			return
		}
		next += int64(bsize)
		blk.next = next
		// The footer's ISIZE tells us whether this member is empty without
		// inflating it; a trailing empty member is the EOF marker.
		sawEOF = binary.LittleEndian.Uint32(raw[len(raw)-4:]) == 0
		pipe.Submit(blk)
	}
}

// dataBuf draws an inflated-payload buffer from the recycle pool.
func (r *ParallelReader) dataBuf() []byte {
	if v := r.dataPool.Get(); v != nil {
		return v.([]byte)
	}
	return nil
}

// inflateBlock is the worker function: decompress and CRC-check one
// member. Sentinel blocks (err already set) pass through untouched.
func (r *ParallelReader) inflateBlock(blk *rblock) {
	if blk.err != nil {
		return
	}
	var t0 time.Time
	if r.met != nil {
		t0 = time.Now()
	}
	inf := r.infPool.Get().(*inflater)
	blk.data, blk.err = inf.inflate(blk.data[:0], blk.raw)
	r.infPool.Put(inf)
	if r.met != nil {
		r.met.latency.Observe(time.Since(t0).Nanoseconds())
		r.met.blocks.Add(1)
		r.met.bytesIn.Add(int64(len(blk.raw)))
		if blk.err == nil {
			r.met.bytesOut.Add(int64(len(blk.data)))
		}
	}
}

// recycle returns a finished block's buffers to their pools. The data
// buffer travels separately from the rblock because NextBlock detaches
// it into the caller's hands.
func (r *ParallelReader) recycle(blk *rblock) {
	if blk.data != nil {
		r.dataPool.Put(blk.data[:0])
		blk.data = nil
	}
	blk.err = nil
	r.blkPool.Put(blk)
}

// nextBlock advances r.cur to the next delivered block.
func (r *ParallelReader) nextBlock() error {
	if r.pipe == nil {
		return errors.New("bgzf: reader not positioned (a Seek failed); Seek again")
	}
	blk, ok := <-r.pipe.Out()
	if !ok {
		// The scan loop always submits a sentinel before closing, so a bare
		// close only happens after the sentinel was already consumed.
		return io.EOF
	}
	if r.cur != nil {
		r.recycle(r.cur)
		r.cur = nil
	}
	if blk.err != nil {
		err := blk.err
		r.recycle(blk)
		return err
	}
	r.cur = blk
	r.pos = 0
	r.blockStart = blk.start
	return nil
}

// Offset returns the virtual offset of the next byte Read will return.
func (r *ParallelReader) Offset() VOffset { return MakeVOffset(r.blockStart, r.pos) }

// NextBlock implements BlockSource: the unread remainder of the current
// delivered block — or the next non-empty one — is detached from the
// pipeline and handed to the caller to parse in place. This is the
// zero-copy fast path: Read memcpy's every inflated byte a second time,
// NextBlock hands over the worker's own buffer.
func (r *ParallelReader) NextBlock() ([]byte, VOffset, error) {
	if r.err != nil {
		return nil, 0, r.err
	}
	for {
		if r.cur != nil && r.pos < len(r.cur.data) {
			blk := r.cur
			data := blk.data[r.pos:]
			off := MakeVOffset(blk.start, r.pos)
			blk.data = nil // detached: the caller owns the bytes now
			r.cur = nil
			r.blockStart = blk.next
			r.pos = 0
			r.recycle(blk)
			return data, off, nil
		}
		if err := r.nextBlock(); err != nil {
			r.err = err
			return nil, 0, err
		}
	}
}

// Recycle implements BlockSource, returning a NextBlock buffer to the
// inflate workers' pool. Safe to call from a goroutine other than the
// consumer (the parallel BAM decoder recycles from its drain side).
func (r *ParallelReader) Recycle(b []byte) {
	if cap(b) > 0 {
		r.dataPool.Put(b[:0])
	}
}

// Read implements io.Reader over the decompressed stream.
func (r *ParallelReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	total := 0
	for len(p) > 0 {
		if r.cur == nil || r.pos == len(r.cur.data) {
			if err := r.nextBlock(); err != nil {
				r.err = err
				if total > 0 && err == io.EOF {
					return total, nil
				}
				return total, err
			}
			continue // empty (EOF-marker) blocks deliver no bytes
		}
		n := copy(p, r.cur.data[r.pos:])
		r.pos += n
		p = p[n:]
		total += n
	}
	return total, nil
}

// Seek positions the reader at a virtual offset: the read-ahead
// pipeline is drained — which joins the file prefetcher, so no stale
// readahead buffer or in-flight read survives — the underlying reader
// is repositioned at the target block, and a fresh pipeline started
// there. It requires the underlying reader to be an io.ReadSeeker.
func (r *ParallelReader) Seek(v VOffset) error {
	if r.rs == nil {
		return errors.New("bgzf: underlying reader is not seekable")
	}
	r.drainPipeline()
	if _, err := r.rs.Seek(v.Block(), io.SeekStart); err != nil {
		// The stream position is unknown now; nextBlock reports the parked
		// state until a later Seek lands.
		return err
	}
	r.err = nil
	r.pos = 0
	r.blockStart = v.Block()
	r.start(v.Block())
	// Load the first non-empty block to validate the intra offset, exactly
	// as the sequential Seek does (its readBlock skips empty members).
	for {
		if err := r.nextBlock(); err != nil {
			r.err = err
			return err
		}
		if len(r.cur.data) > 0 {
			break
		}
	}
	if v.Intra() > len(r.cur.data) {
		return fmt.Errorf("%w: intra-block offset %d beyond block of %d bytes",
			ErrCorrupt, v.Intra(), len(r.cur.data))
	}
	r.pos = v.Intra()
	return nil
}

// drainPipeline cancels the scan loop and consumes every in-flight
// block, leaving no goroutine behind.
func (r *ParallelReader) drainPipeline() {
	if r.pipe == nil {
		return
	}
	r.stop.Store(true)
	if r.cur != nil {
		r.recycle(r.cur)
		r.cur = nil
	}
	for blk := range r.pipe.Out() {
		r.recycle(blk)
	}
	r.pipe = nil
}

// Close shuts the read-ahead pipeline down. The reader must not be used
// afterwards. Close is how a consumer abandons a stream mid-way without
// leaking the scan and worker goroutines.
func (r *ParallelReader) Close() error {
	r.drainPipeline()
	r.err = errors.New("bgzf: reader closed")
	return nil
}

// Interface conformance: both codecs are interchangeable block streams,
// with and without the zero-copy face.
var (
	_ BlockReader = (*Reader)(nil)
	_ BlockReader = (*ParallelReader)(nil)
	_ BlockSource = (*Reader)(nil)
	_ BlockSource = (*ParallelReader)(nil)
	_ BlockWriter = (*Writer)(nil)
	_ BlockWriter = (*ParallelWriter)(nil)
)
