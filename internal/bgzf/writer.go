package bgzf

import (
	"errors"
	"io"
	"sync"

	"parseq/internal/obs"
	"parseq/internal/parpipe"
)

// wblock is one write-side unit of work: a buffered payload on the way
// in, a wrapped BGZF member on the way out.
type wblock struct {
	payload []byte // uncompressed payload (owned by the block)
	block   []byte // compressed, wrapped member
}

// Writer compresses a stream into BGZF blocks. Where blocks deflate is
// fixed by the constructor: on the caller (NewWriter, NewWriterSize), or
// where the worker count places them (NewParallelWriter,
// NewParallelWriterSize; see the package comment). The mode changes
// nothing a reader of the output can see: block boundaries are cut by one
// lazy-flush rule before compression, the encoder is a pure function of
// the payload, and members reach the underlying writer in stream order,
// one Write each — so the bytes, the virtual offsets and the first error
// are the same. A Writer serves one producing goroutine. Close writes
// the EOF marker block (forgetting it produces a file readers reject)
// and stops a pooled writer's goroutines.
type Writer struct {
	w       io.Writer
	payload int    // uncompressed bytes per block
	buf     []byte // pending uncompressed bytes, ≤ payload

	pipe    *parpipe.Pipe[*wblock] // nil: blocks deflate on the caller
	drained chan struct{}          // closed when the pipe's retire loop ends
	blocks  sync.Pool              // *wblock, recycled payload + member buffers
	met     *codecObs              // nil when telemetry is disabled
	sizer   *poolSizer             // non-nil on SharedPool writers

	mu        sync.Mutex
	cond      *sync.Cond
	unsized   int   // submitted blocks not yet size-accounted
	submitted int64 // blocks handed to compress
	retired   int64 // blocks written (or dropped after an error)
	offset    int64 // compressed bytes of every sized block
	err       error // first error in stream order
	closed    bool
}

// NewWriter returns a BGZF writer using the maximum per-block payload,
// deflating on the caller.
func NewWriter(w io.Writer) *Writer {
	return NewWriterSize(w, MaxPayload)
}

// NewWriterSize returns a BGZF writer with an explicit per-block
// uncompressed payload size (clamped to [1, MaxPayload]), deflating on
// the caller. Smaller payloads trade compression ratio for finer
// random-access granularity.
func NewWriterSize(w io.Writer, payload int) *Writer {
	if payload <= 0 || payload > MaxPayload {
		payload = MaxPayload
	}
	bw := &Writer{w: w, payload: payload, buf: make([]byte, 0, payload)}
	bw.cond = sync.NewCond(&bw.mu)
	bw.blocks.New = func() any { return &wblock{} }
	bw.met = codecObsFor(&deflateObs, "deflate")
	return bw
}

// NewParallelWriter returns a BGZF writer using the maximum per-block
// payload whose blocks deflate where workers places them: on the caller
// at 1, on a private pool of workers above 1, on SharedPool at ≤ 0.
func NewParallelWriter(w io.Writer, workers int) *Writer {
	return NewParallelWriterSize(w, MaxPayload, workers)
}

// NewParallelWriterSize is NewParallelWriter with an explicit per-block
// payload size, as NewWriterSize takes it.
func NewParallelWriterSize(w io.Writer, payload, workers int) *Writer {
	bw := NewWriterSize(w, payload)
	if pipe, sizer := deflatePipe(workers, bw.compress); pipe != nil {
		bw.sizer = sizer
		bw.start(pipe)
	}
	return bw
}

// deflatePipe places deflate jobs by the worker rule: nil at 1 (the
// caller runs them), a private pipeline of workers above 1, and at ≤ 0 a
// pipeline on SharedPool, returned with the pool's sizer — the only
// jobs that may feed it are the ones that ran there.
func deflatePipe[J any](workers int, fn func(J)) (*parpipe.Pipe[J], *poolSizer) {
	switch {
	case workers == 1:
		return nil, nil
	case workers > 1:
		return parpipe.NewObserved(workers, pipeDepth(workers), fn, obs.Default(), "bgzf.deflate"), nil
	}
	pool := SharedPool()
	return parpipe.NewOnPool(pool, pipeDepth(pool.Max()), fn, obs.Default(), "bgzf.deflate"), sharedSizer
}

// start hands the writer's blocks to pipe and launches the loop that
// retires them in order.
func (w *Writer) start(pipe *parpipe.Pipe[*wblock]) {
	w.pipe = pipe
	w.drained = make(chan struct{})
	go func() {
		defer close(w.drained)
		for b := range pipe.Out() {
			w.retire(b)
		}
	}()
}

// compress wraps one payload into a BGZF member: the pipeline's job, or
// a plain call on the caller inline. The compressed size is accounted as
// soon as it is known so Offset can resolve without waiting for the
// block to reach the underlying writer.
func (w *Writer) compress(b *wblock) {
	b.block = deflate(b.block, b.payload, w.met, w.sizer)
	w.mu.Lock()
	w.offset += int64(len(b.block))
	w.unsized--
	w.cond.Broadcast()
	w.mu.Unlock()
}

// retire writes one compressed block to the underlying writer; blocks
// are retired in submission order. After the first error — a failed
// write, in stream order — later blocks are dropped, so a pipeline
// always empties.
func (w *Writer) retire(b *wblock) {
	err := w.errNow()
	if err == nil {
		_, err = w.w.Write(b.block)
	}
	b.payload = b.payload[:0]
	w.blocks.Put(b)
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.retired++
	w.cond.Broadcast()
	w.mu.Unlock()
}

// errNow snapshots the sticky error.
func (w *Writer) errNow() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// submit hands the full buffer off as one block, swapping in a recycled
// buffer so the hot path never copies payload bytes: to the pipeline
// when there is one, otherwise through compress and retire right here.
func (w *Writer) submit() {
	b := w.blocks.Get().(*wblock)
	b.payload, w.buf = w.buf, b.payload[:0]
	if cap(w.buf) < w.payload {
		w.buf = make([]byte, 0, w.payload)
	}
	w.mu.Lock()
	w.unsized++
	w.submitted++
	w.mu.Unlock()
	if w.pipe == nil {
		w.compress(b)
		w.retire(b)
		return
	}
	w.pipe.Submit(b)
}

// Offset returns the virtual offset the next written byte will have. It
// waits until every in-flight block's compressed size is known — but not
// for the blocks to be written.
func (w *Writer) Offset() VOffset {
	w.mu.Lock()
	for w.unsized > 0 {
		w.cond.Wait()
	}
	off := w.offset
	w.mu.Unlock()
	return MakeVOffset(off, len(w.buf))
}

// Write buffers p, handing a payload off only when the next byte needs
// its space — so block boundaries and Offset values depend on the Write
// sequence alone, never on the mode.
func (w *Writer) Write(p []byte) (int, error) {
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

// Flush hands any buffered bytes off as one block and waits for every
// block to reach the underlying writer. It is a no-op when the buffer is
// empty, so files never contain spurious empty data blocks.
func (w *Writer) Flush() error {
	if err := w.errNow(); err != nil {
		return err
	}
	if len(w.buf) > 0 {
		w.submit()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.retired < w.submitted {
		w.cond.Wait()
	}
	return w.err
}

// Close flushes pending data, stops a pooled writer's pipeline, and
// writes the EOF marker. Later calls return the first error, or one
// saying the writer is closed.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		defer w.mu.Unlock()
		return w.err
	}
	w.closed = true
	w.mu.Unlock()
	err := w.Flush()
	if w.pipe != nil {
		w.pipe.Close()
		<-w.drained
	}
	if err == nil {
		_, err = w.w.Write(eofMarker)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.err = err
		return err
	}
	w.offset += int64(len(eofMarker))
	w.err = errors.New("bgzf: writer closed")
	return nil
}
