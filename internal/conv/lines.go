// The SAM source's line engine, in the mould of bam.ParallelScanner:
//
//	scan:   cut the rank's byte range into ~256 KiB batches of whole
//	        lines — subslices of the file mapping, or pooled chunks with
//	        boundary lines stitched through a dedicated carry buffer where
//	        mapping is unavailable,
//	parse:  parse each batch's lines in place (sam.ParseRecordIntoBytes —
//	        zero per-line allocation) and hand each record to the
//	        caller's work function (encode into a pooled output buffer, or
//	        keep the record for preprocessing),
//	drain:  hand each parsed batch to the caller in input order.
//
// With ParseWorkers 1 all three run inline on the rank's goroutine, one
// batch at a time. With more, the scan runs on its own goroutine and
// ParseWorkers goroutines parse behind an order-preserving parpipe stage,
// so the output bytes and the first error surfaced do not depend on the
// worker count — the byte-identity and error-parity tests pin both.

package conv

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"

	"parseq/internal/obs"
	"parseq/internal/parpipe"
	"parseq/internal/partition"
	"parseq/internal/sam"
)

// batchBytes is the target chunk size of the scan stage: large enough
// to amortise per-batch channel traffic and goroutine handoffs over
// thousands of records (on a loaded core each handoff costs a
// scheduler pass), small enough that the in-flight window of batches
// stays memory-friendly and a rank's section still splits into enough
// batches to balance across the workers.
const batchBytes = 256 << 10

// lineBatch is the pipeline's unit of work: one pooled chunk of whole
// input lines on the way in; encoded output bytes (or parsed records,
// on the preprocessing path) plus tallies on the way out.
type lineBatch struct {
	chunk   []byte       // whole input lines (pooled; nil on sentinel batches)
	base    int64        // absolute file offset of chunk[0]
	out     []byte       // encoded target bytes (pooled)
	recs    []sam.Record // parsed records (preprocessing path only)
	records int64        // records parsed
	emitted int64        // records that produced output
	err     error        // first parse/encode error, or terminal scan error
}

// batchScanner cuts a stream into pooled chunks of whole lines. The
// partial line at a chunk's end is copied into a dedicated carry buffer
// and prepended to the next chunk — copied, not aliased, so recycling a
// chunk can never corrupt a boundary line in flight (the same stitching
// discipline as bam.BodyScanner's carry).
type batchScanner struct {
	r     io.Reader
	pool  *sync.Pool
	carry []byte
	off   int64 // absolute file offset of the next chunk's first byte
	eof   bool
}

// next returns the next chunk of whole lines and the absolute offset of
// its first byte. The final chunk may lack a trailing newline, exactly
// as bufio.ScanLines delivers a final unterminated line. After the
// stream is exhausted it returns io.EOF.
func (s *batchScanner) next() ([]byte, int64, error) {
	if s.eof && len(s.carry) == 0 {
		return nil, 0, io.EOF
	}
	chunk := s.pool.Get().([]byte)[:0]
	chunk = append(chunk, s.carry...)
	s.carry = s.carry[:0]
	for {
		for !s.eof && len(chunk) < cap(chunk) {
			n, err := s.r.Read(chunk[len(chunk):cap(chunk)])
			chunk = chunk[:len(chunk)+n]
			if err == io.EOF {
				s.eof = true
				break
			}
			if err != nil {
				return nil, 0, err
			}
		}
		if s.eof {
			if len(chunk) == 0 {
				return nil, 0, io.EOF
			}
			base := s.off
			s.off += int64(len(chunk))
			return chunk, base, nil
		}
		if i := bytes.LastIndexByte(chunk, '\n'); i >= 0 {
			s.carry = append(s.carry[:0], chunk[i+1:]...)
			base := s.off
			s.off += int64(i + 1)
			return chunk[:i+1], base, nil
		}
		// No newline in the whole chunk: its first (and only) line is
		// longer than the chunk. Grow and keep reading, up to the line
		// limit — chunk[0] is always a line start, so the offending
		// line's offset is the chunk's.
		if len(chunk) >= sam.MaxLineBytes {
			return nil, 0, sam.LineTooLongError(s.off)
		}
		grown := cap(chunk) * 2
		if grown > sam.MaxLineBytes {
			grown = sam.MaxLineBytes
		}
		bigger := make([]byte, len(chunk), grown)
		copy(bigger, chunk)
		chunk = bigger
	}
}

// cutLine splits data at the first newline with bufio.ScanLines
// semantics: the line excludes the newline and a trailing carriage
// return; without a newline the remainder is the final line.
func cutLine(data []byte) (line, rest []byte) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line, rest = data[:i], data[i+1:]
	} else {
		line, rest = data, nil
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, rest
}

// The batch buffer pools are process-wide: every pipeline cuts chunks
// of the same capacity, so ranks and successive conversions reuse one
// warm buffer population instead of each run allocating (and the
// runtime zeroing) a fresh in-flight window.
var (
	chunkPool = sync.Pool{New: func() any { return make([]byte, 0, batchBytes) }}
	// Output buffers start at the batch size: most targets emit at most
	// about as many bytes as they read, so a full-size buffer avoids the
	// append-doubling copies a nil slice would pay on its first batches.
	outPool   = sync.Pool{New: func() any { return make([]byte, 0, batchBytes) }}
	batchPool = sync.Pool{New: func() any { return &lineBatch{} }}
)

// batchFunc is what the engine does with one parsed record of batch b.
// It runs on a parse worker and may touch only b and its own state; rec
// aliases b.chunk and is reparsed into after the call, so a function
// that keeps the record appends it to b.recs and zeroes *rec.
type batchFunc func(b *lineBatch, rec *sam.Record) error

// batches runs the engine over br: each batch's records go to a
// newWork() instance (one per parse goroutine) and drain is called with
// every batch in input order on the caller's goroutine. A scan error
// travels as the final batch's err, so drain sees every complete batch
// first — first error in stream order; a batch that fails midway is
// still drained (its records before the error count) before its error
// ends the run.
func (s *samSource) batches(br partition.ByteRange, stage string,
	newWork func() batchFunc, drain func(*lineBatch) error) error {

	var stop atomic.Bool
	pooled := s.mapped == nil
	scan := func(emit func(*lineBatch)) {
		if pooled {
			scanBatches(emit, &stop, io.NewSectionReader(s.f, br.Start, br.Len()), br.Start)
		} else {
			cutBatches(emit, &stop, s.mapped[br.Start:br.Start+br.Len()], br.Start)
		}
	}
	var firstErr error
	settle := func(b *lineBatch) {
		if firstErr == nil {
			if firstErr = drain(b); firstErr == nil {
				firstErr = b.err
			}
			if firstErr != nil {
				stop.Store(true)
			}
		}
		// Pool chunks go back unless the batch's records were kept (they
		// alias the chunk — the lifetime contract of
		// sam.ParseRecordIntoBytes) or a long line grew the chunk past
		// batchBytes, which would leave the shared population unevenly
		// sized.
		if pooled && len(b.recs) == 0 && cap(b.chunk) == batchBytes {
			chunkPool.Put(b.chunk[:0])
		}
		outPool.Put(b.out[:0])
		// drain has copied the kept records out; the batch keeps the
		// slice's capacity for the next batch's records, cleared so it
		// pins no chunk.
		clear(b.recs)
		*b = lineBatch{recs: b.recs[:0]}
		batchPool.Put(b)
	}

	if s.workers == 1 {
		work := newWork()
		scan(func(b *lineBatch) {
			parseBatchLines(b, work)
			settle(b)
		})
		return firstErr
	}
	// One work function per worker, built up front and handed around.
	free := make(chan batchFunc, s.workers)
	for i := 0; i < s.workers; i++ {
		free <- newWork()
	}
	pipe := parpipe.NewObserved(s.workers, 4*s.workers, func(b *lineBatch) {
		work := <-free
		parseBatchLines(b, work)
		free <- work
	}, obs.Default(), stage)
	go func() {
		defer pipe.Close()
		scan(pipe.Submit)
	}()
	for b := range pipe.Out() {
		settle(b)
	}
	return firstErr
}

// newBatch draws a batch over chunk from the pools.
func newBatch(chunk []byte, base int64) *lineBatch {
	b := batchPool.Get().(*lineBatch)
	b.chunk, b.base = chunk, base
	b.out = outPool.Get().([]byte)[:0]
	return b
}

// scanBatches cuts a stream whose first byte sits at absolute file
// offset base into batches and emits them in order.
func scanBatches(emit func(*lineBatch), stop *atomic.Bool, r io.Reader, base int64) {
	sc := &batchScanner{r: r, pool: &chunkPool, off: base}
	for !stop.Load() {
		chunk, off, err := sc.next()
		if err == io.EOF {
			return
		}
		b := newBatch(chunk, off)
		b.err = err
		emit(b)
		if err != nil {
			return
		}
	}
}

// cutBatches cuts a memory-mapped partition into batches and emits them
// in order: plain subslices of the mapping cut at line boundaries — no
// reads, no copies, no pooled chunks. The mapping must outlive every
// record parsed from it.
func cutBatches(emit func(*lineBatch), stop *atomic.Bool, data []byte, base int64) {
	off := 0
	for off < len(data) && !stop.Load() {
		end := off + batchBytes
		if end >= len(data) {
			end = len(data)
		} else if i := bytes.LastIndexByte(data[off:end], '\n'); i >= 0 {
			end = off + i + 1
		} else if j := bytes.IndexByte(data[end:], '\n'); j >= 0 {
			// One line longer than a batch: the batch becomes that
			// whole line, and the worker's per-line limit check
			// enforces sam.MaxLineBytes with the right offset.
			end += j + 1
		} else {
			end = len(data)
		}
		emit(newBatch(data[off:end], base+int64(off)))
		off = end
	}
}

// parseBatchLines drives one batch's line loop: every non-empty line is
// parsed in place and handed to work. On any error the batch stops
// there, recording it — batches are independent, and the ordered drain
// surfaces the first error in stream order.
func parseBatchLines(b *lineBatch, work batchFunc) {
	if b.err != nil {
		return
	}
	var rec sam.Record
	data := b.chunk
	rel := int64(0)
	for len(data) > 0 {
		line, rest := cutLine(data)
		if len(line) >= sam.MaxLineBytes {
			// Line-limit parity with sam.LineScanner, which refuses
			// any line of at least the limit.
			b.err = sam.LineTooLongError(b.base + rel)
			return
		}
		rel += int64(len(data) - len(rest))
		data = rest
		if len(line) == 0 {
			continue
		}
		if b.err = sam.ParseRecordIntoBytes(&rec, line); b.err != nil {
			return
		}
		b.records++
		if b.err = work(b, &rec); b.err != nil {
			return
		}
	}
}
