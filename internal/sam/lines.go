// The one SAM alignment-line reader: a Source is a SAM file opened once
// (header scanned, the file mapped where it can be), and its batch line
// engine reads any byte range of it — a rank's Algorithm 1 share, or
// the whole alignment section — in three stages:
//
//	scan:  cut the range into ~256 KiB batches of whole lines —
//	       subslices of the file mapping, or pooled chunks with boundary
//	       lines stitched through a dedicated carry buffer where mapping
//	       is unavailable,
//	visit: parse each batch's lines in place (ParseRecordIntoBytes —
//	       zero per-line allocation) and hand each record to a Visit,
//	       which appends what it makes of it (target text, encoded BAM
//	       records, coverage spans) to the batch's pooled Out buffer,
//	drain: hand each visited batch to the caller in input order.
//
// With one worker all three run inline on the caller's goroutine, one
// batch at a time. With more, the scan runs on its own goroutine and
// the workers visit batches behind an order-preserving parpipe stage,
// so the drained bytes and the first error surfaced do not depend on
// the worker count — the byte-identity and error-parity tests pin both.
// The converter, SAM preprocessing, flagstat, the coverage histogram
// and the sorter all read SAM lines here.

package sam

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"parseq/internal/mpi"
	"parseq/internal/obs"
	"parseq/internal/parpipe"
	"parseq/internal/partition"
)

// Source is a SAM text file as the batch line engine reads it: opened
// and its header scanned once, then shared by the ranks, which read
// their shares through positioned reads or the mapping.
type Source struct {
	Header    *Header
	DataStart int64 // offset of the first alignment line
	Size      int64 // file size: the end of the alignment section

	f      *os.File
	mapped []byte // whole-file mapping the engine parses out of; nil → streamed reads
	unmap  func() // releases mapped
}

// Open opens a SAM file and scans its header. The engine parses straight
// out of the page cache through a read-only mapping where the platform
// and the file allow one (not an empty file, pipe, or filesystem without
// mmap).
func Open(path string) (*Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &Source{Size: fi.Size(), f: f, unmap: func() {}}
	if s.Header, s.DataStart, err = ScanHeader(f); err != nil {
		f.Close()
		return nil, err
	}
	if data, unmap, err := mmapFile(f, s.Size); err == nil {
		s.mapped, s.unmap = data, unmap
	}
	return s, nil
}

// Close releases the source; no record parsed by the engine may be used
// after it.
func (s *Source) Close() {
	s.unmap()
	s.f.Close()
}

// Partition is Algorithm 1: the alignment section is split evenly by
// bytes and each boundary adjusted forward to the next line breaker.
// It returns the calling rank's share.
func (s *Source) Partition(c *mpi.Comm) (partition.ByteRange, error) {
	return partition.SAMForwardMPI(c, s.f, s.DataStart, s.Size)
}

// All is the whole alignment section as one share.
func (s *Source) All() partition.ByteRange {
	return partition.ByteRange{Start: s.DataStart, End: s.Size}
}

// AdaptiveWorkers is the engine worker count of each of ranks ranks
// that read at once, where the caller sets none: the ranks already
// occupy that many CPUs, so each gets its share of the remaining
// parallelism, clamped to [1, 8] like the codec's.
func AdaptiveWorkers(ranks int) int {
	return min(max(runtime.GOMAXPROCS(0)/ranks, 1), 8)
}

// batchBytes is the target chunk size of the scan stage: large enough
// to amortise per-batch channel traffic and goroutine handoffs over
// thousands of records (on a loaded core each handoff costs a
// scheduler pass), small enough that the in-flight window of batches
// stays memory-friendly and a rank's section still splits into enough
// batches to balance across the workers.
const batchBytes = 256 << 10

// Visit is what the engine does with one parsed record: it appends the
// record's product (nothing, for a record it skips) to dst and returns
// the extended slice. rec's fields alias the line and are valid only
// during the call. One instance serves one goroutine.
type Visit func(dst []byte, rec *Record) ([]byte, error)

// Batch is the engine's unit of work: one chunk of whole input lines on
// the way in; the visits' output bytes plus tallies on the way out. A
// drained batch and its buffers go back to the engine's pools when
// drain returns.
type Batch struct {
	Chunk   []byte // whole input lines
	Out     []byte // what the batch's visits appended, in line order
	Records int64  // records parsed
	Emitted int64  // records whose visit appended output

	base int64 // absolute file offset of Chunk[0]
	err  error // first parse or visit error, or terminal scan error
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
		if len(chunk) >= MaxLineBytes {
			return nil, 0, LineTooLongError(s.off)
		}
		grown := cap(chunk) * 2
		if grown > MaxLineBytes {
			grown = MaxLineBytes
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
// of the same capacity, so ranks and successive runs reuse one warm
// buffer population instead of each run allocating (and the runtime
// zeroing) a fresh in-flight window.
var (
	chunkPool = sync.Pool{New: func() any { return make([]byte, 0, batchBytes) }}
	// Output buffers start at the batch size: most visits emit at most
	// about as many bytes as they read, so a full-size buffer avoids the
	// append-doubling copies a nil slice would pay on its first batches.
	outPool   = sync.Pool{New: func() any { return make([]byte, 0, batchBytes) }}
	batchPool = sync.Pool{New: func() any { return &Batch{} }}
)

// Batches runs the engine over br with workers goroutines (1 runs it
// inline): each batch's records are visited by a newVisit() instance
// (one per worker, built up front on the caller's goroutine) and drain
// is called with every batch in input order on the caller's goroutine.
// A scan error travels as the final batch's err, so drain sees every
// complete batch first — first error in stream order; a batch that
// fails midway is still drained (its records before the error count)
// before its error ends the run.
func (s *Source) Batches(br partition.ByteRange, workers int, newVisit func() Visit, drain func(*Batch) error) error {
	var stop atomic.Bool
	pooled := s.mapped == nil
	scan := func(emit func(*Batch)) {
		if pooled {
			scanBatches(emit, &stop, io.NewSectionReader(s.f, br.Start, br.Len()), br.Start)
		} else {
			cutBatches(emit, &stop, s.mapped[br.Start:br.Start+br.Len()], br.Start)
		}
	}
	var firstErr error
	settle := func(b *Batch) {
		if firstErr == nil {
			if firstErr = drain(b); firstErr == nil {
				firstErr = b.err
			}
			if firstErr != nil {
				stop.Store(true)
			}
		}
		// Pool chunks go back unless a long line grew the chunk past
		// batchBytes, which would leave the shared population unevenly
		// sized.
		if pooled && cap(b.Chunk) == batchBytes {
			chunkPool.Put(b.Chunk[:0])
		}
		outPool.Put(b.Out[:0])
		*b = Batch{}
		batchPool.Put(b)
	}

	if workers <= 1 {
		visit := newVisit()
		scan(func(b *Batch) {
			visitBatch(b, visit)
			settle(b)
		})
		return firstErr
	}
	// One visitor per worker, built up front and handed around.
	free := make(chan Visit, workers)
	for range workers {
		free <- newVisit()
	}
	pipe := parpipe.NewObserved(workers, 4*workers, func(b *Batch) {
		visit := <-free
		visitBatch(b, visit)
		free <- visit
	}, obs.Default(), "conv.encode")
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
func newBatch(chunk []byte, base int64) *Batch {
	b := batchPool.Get().(*Batch)
	b.Chunk, b.base = chunk, base
	b.Out = outPool.Get().([]byte)[:0]
	return b
}

// scanBatches cuts a stream whose first byte sits at absolute file
// offset base into batches and emits them in order.
func scanBatches(emit func(*Batch), stop *atomic.Bool, r io.Reader, base int64) {
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

// cutBatches cuts a memory-mapped share into batches and emits them in
// order: plain subslices of the mapping cut at line boundaries — no
// reads, no copies, no pooled chunks. The mapping must outlive every
// record parsed from it.
func cutBatches(emit func(*Batch), stop *atomic.Bool, data []byte, base int64) {
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
			// enforces MaxLineBytes with the right offset.
			end += j + 1
		} else {
			end = len(data)
		}
		emit(newBatch(data[off:end], base+int64(off)))
		off = end
	}
}

// visitBatch drives one batch's line loop: every non-empty line is
// parsed in place and visited onto b.Out. On any error the batch stops
// there, recording it with the line's file offset — batches are
// independent, and the ordered drain surfaces the first error in stream
// order.
func visitBatch(b *Batch, visit Visit) {
	if b.err != nil {
		return
	}
	var rec Record
	for data := b.Chunk; len(data) > 0; {
		off := b.base + int64(len(b.Chunk)-len(data)) // the line's file offset
		line, rest := cutLine(data)
		data = rest
		if len(line) >= MaxLineBytes {
			// bufio.Scanner's rule, which the header scan keeps too: a
			// line of at least the limit is refused.
			b.err = LineTooLongError(off)
			return
		}
		if len(line) == 0 {
			continue
		}
		if err := ParseRecordIntoBytes(&rec, line); err != nil {
			b.err = lineError(off, err)
			return
		}
		b.Records++
		out, err := visit(b.Out, &rec)
		if err != nil {
			b.err = lineError(off, err)
			return
		}
		if len(out) != len(b.Out) {
			b.Emitted++
		}
		b.Out = out
	}
}
