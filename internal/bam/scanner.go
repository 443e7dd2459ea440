// Zero-copy and parallel record scanning. Both scanners here sit on the
// codec's block API (bgzf.Reader's NextBlock/Recycle, in either mode):
// whole inflated blocks are parsed in place, so record bytes are copied
// only when a record straddles a block boundary — a few percent of the
// stream — instead of once per record through Read's copy loop.
//
// BodyScanner is every Reader's one record cursor (raw bodies, one
// goroutine): ReadBody, ReadInto, Offset and Seek, the pieces and the
// index regions all walk it. ParallelScanner additionally fans
// DecodeRecord out to a parpipe worker pool in multi-block batches,
// delivering fully decoded records strictly in file order — the
// read-side mirror of the parallel BGZF writer. On hosts where fan-out
// cannot pay for its dispatch (one worker or one CPU) it degrades to the
// reader's cursor with zero pipeline overhead.

package bam

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"parseq/internal/bgzf"
	"parseq/internal/obs"
	"parseq/internal/parpipe"
	"parseq/internal/sam"
)

// minRecordBody is the smallest legal encoded record body: the fixed
// 32-byte prefix.
const minRecordBody = 32

// BodyScanner iterates the raw encoded record bodies of a BAM stream
// through the codec's zero-copy block API. Each Reader owns exactly one,
// its record cursor, so the scanner and the reader's own Read* calls,
// Offset and Seek walk one position and may be interleaved.
type BodyScanner struct {
	src   *bgzf.Reader
	block []byte // current inflated block, owned until exhausted
	pos   int
	carry []byte // scratch for records spanning block boundaries
	err   error
	// A piece's end (0: none), the offsets of block[0] and of the block
	// after it.
	hi, base, after bgzf.VOffset
}

// NewBodyScanner returns br's record cursor, running to the end of the
// stream, at br's position (NewReader leaves it at the first record).
func NewBodyScanner(br *Reader) *BodyScanner {
	br.cur.hi = 0
	return &br.cur
}

// NewPieceScanner is NewBodyScanner ending at hi, the virtual offset of
// a later record start. A record running past hi, or one that does not
// parse, means the piece is cut off the record grid (a stale index):
// bgzf.ErrCorrupt, naming the offset.
func NewPieceScanner(br *Reader, hi bgzf.VOffset) *BodyScanner {
	s := NewBodyScanner(br)
	s.hi = hi
	return s
}

// offset is the cursor's position: in the block it holds, else the
// codec's.
func (s *BodyScanner) offset() bgzf.VOffset {
	if s.block == nil {
		return s.src.Offset()
	}
	return s.base + bgzf.VOffset(s.pos)
}

// reset hands the held block back and clears the cursor, end included,
// for a Seek.
func (s *BodyScanner) reset() {
	if s.block != nil {
		s.src.Recycle(s.block)
	}
	*s = BodyScanner{src: s.src, carry: s.carry[:0]}
}

// Next returns the next record body (without the block_size prefix),
// valid until the following Next call. It returns io.EOF at the end of
// the stream or piece and sticks on the first error.
func (s *BodyScanner) Next() ([]byte, error) {
	if s.err != nil {
		return nil, s.err
	}
	at := s.offset()
	body, err := s.next()
	if err == nil {
		return body, nil
	}
	if err != io.EOF && s.hi != 0 {
		err = offGrid(at, err)
	}
	s.err = err
	return nil, err
}

// offGrid names the offset of a read from where an index says a record
// starts: a record that does not parse there is bgzf.ErrCorrupt.
func offGrid(at bgzf.VOffset, err error) error {
	if errors.Is(err, ErrInvalidRecord) {
		err = fmt.Errorf("%w: %w", bgzf.ErrCorrupt, err)
	}
	return fmt.Errorf("bam: record at %v: %w", at, err)
}

// pastEnd is the error of a record that runs past the piece's end.
func (s *BodyScanner) pastEnd() error {
	return fmt.Errorf("%w: a record runs past %v, the piece's end", bgzf.ErrCorrupt, s.hi)
}

// next parses the following record out of the current block, loading
// blocks as needed.
func (s *BodyScanner) next() ([]byte, error) {
	for {
		avail := len(s.block) - s.pos
		if s.hi != 0 {
			// A block's end is the same stream position as the next one's
			// start.
			at := s.offset()
			if at == s.hi || avail == 0 && s.after == s.hi {
				return nil, io.EOF
			}
			if at > s.hi || avail == 0 && s.after > s.hi {
				return nil, s.pastEnd()
			}
		}
		if avail >= 4 {
			size := int(int32(binary.LittleEndian.Uint32(s.block[s.pos:])))
			if size < minRecordBody {
				return nil, fmt.Errorf("%w: block_size %d", ErrInvalidRecord, size)
			}
			if avail-4 >= size {
				body := s.block[s.pos+4 : s.pos+4+size]
				s.pos += 4 + size
				return body, nil
			}
			break // record spans into the next block
		}
		if avail > 0 {
			break // even the size prefix spans blocks
		}
		if err := s.advance(); err != nil {
			return nil, err // io.EOF here is a clean end at a record boundary
		}
	}
	return s.spanning()
}

// advance recycles the exhausted block and loads the next one.
func (s *BodyScanner) advance() error {
	if s.block != nil {
		s.src.Recycle(s.block)
		s.block, s.pos = nil, 0
	}
	data, off, err := s.src.NextBlock()
	if err != nil {
		return err
	}
	s.block, s.pos, s.base, s.after = data, 0, off, s.src.Offset()
	return nil
}

// spanning stitches a record that crosses one or more block boundaries
// into the carry buffer, starting from the record's first bytes at
// s.pos in the current block. The size prefix may straddle blocks too.
func (s *BodyScanner) spanning() ([]byte, error) {
	s.carry = append(s.carry[:0], s.block[s.pos:]...)
	s.pos = len(s.block)
	for need := 4; ; {
		if need == 4 && len(s.carry) >= 4 {
			size := int(int32(binary.LittleEndian.Uint32(s.carry)))
			if size < minRecordBody {
				return nil, fmt.Errorf("%w: block_size %d", ErrInvalidRecord, size)
			}
			need += size
		}
		if len(s.carry) >= need {
			return s.carry[4:], nil
		}
		if s.pos == len(s.block) {
			if err := s.refill(need == 4); err != nil {
				return nil, err
			}
		}
		take := min(need-len(s.carry), len(s.block)-s.pos)
		s.carry = append(s.carry, s.block[s.pos:s.pos+take]...)
		s.pos += take
	}
}

// refill loads the block after the current one for a record that
// continues past it. At a piece's end it stops instead: a record that
// reaches the end is cut off the record grid, however long it claims to
// be, so no member past the piece is inflated to carry it.
func (s *BodyScanner) refill(inSize bool) error {
	if s.hi != 0 && s.after >= s.hi {
		return s.pastEnd()
	}
	return truncatedErr(s.advance(), inSize)
}

// truncatedErr maps a clean end-of-stream in the middle of a record to
// ErrInvalidRecord, as a run's framing does; codec errors (ErrCorrupt,
// ErrNoEOFMarker, ...) pass through untouched.
func truncatedErr(err error, inSize bool) error {
	if err != io.EOF {
		return err
	}
	if inSize {
		return fmt.Errorf("%w: truncated record size", ErrInvalidRecord)
	}
	return fmt.Errorf("%w: truncated record body: %w", ErrInvalidRecord, io.ErrUnexpectedEOF)
}

// decodeBatch is a run of whole blocks' records travelling through the
// decode pipeline: the inflated blocks themselves, body slices pointing
// into them (stitched copies for records spanning block boundaries),
// and the decoded records. err, when set, positions after the last
// body — scan errors surface only once every record before them has
// been delivered.
type decodeBatch struct {
	datas  [][]byte // inflated blocks, recycled to the codec after use
	bodies [][]byte // raw bodies in file order
	recs   []sam.Record
	err    error
}

// Batch sizing for the decode pipeline. Per-batch costs — channel
// handoff, pool round trip, the records allocation, parpipe dispatch —
// are fixed, so batches grow until they hold batchBytes of record
// payload (typically one to four inflated blocks) before submitting.
// The target adapts to the worker count: few workers lean large to
// amortize dispatch, many workers lean small to keep every worker fed.
const (
	minBatchBytes   = 64 << 10
	maxBatchBytes   = 256 << 10
	batchBytesTotal = 512 << 10
)

// batchTarget returns the per-batch payload target for a worker count.
func batchTarget(workers int) int {
	t := batchBytesTotal / workers
	if t < minBatchBytes {
		return minBatchBytes
	}
	if t > maxBatchBytes {
		return maxBatchBytes
	}
	return t
}

// scannerProcs is runtime.GOMAXPROCS, indirected so tests can pin the
// apparent CPU count when choosing between the sequential bypass and
// the decode pipeline.
var scannerProcs = runtime.GOMAXPROCS

// ParallelScanner decodes BAM records on a worker pool while preserving
// file order. A feeder goroutine pulls inflated blocks through the
// zero-copy API and splits them into whole-record batches — batchTarget
// bytes of payload per batch, copying only boundary-spanning records —
// a parpipe pool fans DecodeRecord out, and Next delivers records in
// order. The pipeline reports through parpipe's "bam.decode" metrics
// (queue depth, busy/idle fractions) plus a bam.decode.records counter.
//
// The scanner owns the reader's stream position. Close it before
// closing the Reader, and do not interleave with the reader's own Read*
// calls. Records handed out by Next own their storage (DecodeRecord
// copies all bytes), so they stay valid after the scanner recycles the
// underlying block.
type ParallelScanner struct {
	src    *bgzf.Reader
	header *sam.Header

	pipe *parpipe.Pipe[*decodeBatch]
	stop *atomic.Bool

	cur *decodeBatch
	idx int
	err error

	batchPool  sync.Pool
	batchBytes int          // per-batch payload target (batchTarget)
	met        *obs.Counter // bam.decode.records; nil when telemetry is off

	seq *BodyScanner // sequential bypass: decode on the caller
}

// NewParallelScanner wraps br, which must be positioned at the first
// record. workers ≤ 0 selects the adaptive default
// (bgzf.AutoWorkers). The record order, contents, and error behaviour
// are identical to a sequential ReadInto loop.
//
// When parallelism cannot win — one effective worker, or a single-CPU
// host where fan-out dispatch only adds overhead (the 57-vs-67 MB/s
// regression BENCH_decode.json pinned) — the scanner takes a
// zero-overhead sequential bypass: the zero-copy BodyScanner feeds
// DecodeRecord on the caller's goroutine, no pipeline, no channels.
func NewParallelScanner(br *Reader, workers int) *ParallelScanner {
	s := &ParallelScanner{src: br.bg, header: br.Header()}
	if workers <= 0 {
		workers = bgzf.AutoWorkers()
	}
	reg := obs.Default()
	if reg != nil {
		s.met = reg.Counter("bam.decode.records")
	}
	if workers <= 1 || scannerProcs(0) <= 1 {
		s.seq = NewBodyScanner(br)
		return s
	}
	s.batchBytes = batchTarget(workers)
	s.batchPool.New = func() any { return &decodeBatch{} }
	s.stop = &atomic.Bool{}
	s.pipe = parpipe.NewObserved(workers, 4*workers, s.decode, reg, "bam.decode")
	go s.feed(s.pipe, s.stop)
	return s
}

// Header returns the decoded header, making the scanner a drop-in
// record source alongside *Reader.
func (s *ParallelScanner) Header() *sam.Header { return s.header }

// feed splits inflated blocks into record batches. carry accumulates a
// record spanning block boundaries; when the record completes, the
// stitched copy joins the bodies of the batch its block belongs to. A
// batch accumulates blocks until it holds batchBytes of record payload,
// amortizing the pipeline's per-batch dispatch over several blocks. The
// loop ends by submitting a final batch whose err is io.EOF, a
// truncation error, or the codec's error — always positioned after
// every complete record.
func (s *ParallelScanner) feed(pipe *parpipe.Pipe[*decodeBatch], stop *atomic.Bool) {
	defer pipe.Close()
	var carry []byte
	b := s.batch()
	payload := 0 // record-body bytes accumulated in b
	for !stop.Load() {
		data, _, err := s.src.NextBlock()
		if err != nil {
			b.err = feedFinalErr(err, carry)
			pipe.Submit(b)
			return
		}
		b.datas = append(b.datas, data)
		pos := 0
		// Complete a spanning record first.
		if len(carry) > 0 {
			if len(carry) < 4 {
				take := 4 - len(carry)
				if take > len(data) {
					take = len(data)
				}
				carry = append(carry, data[:take]...)
				pos = take
			}
			if len(carry) < 4 {
				continue // tiny block swallowed whole by the prefix
			}
			size := int(int32(binary.LittleEndian.Uint32(carry)))
			if size < minRecordBody {
				b.err = fmt.Errorf("%w: block_size %d", ErrInvalidRecord, size)
				pipe.Submit(b)
				return
			}
			take := 4 + size - len(carry)
			if m := len(data) - pos; m < take {
				take = m
			}
			carry = append(carry, data[pos:pos+take]...)
			pos += take
			if len(carry) < 4+size {
				continue // record spans beyond this whole block
			}
			b.bodies = append(b.bodies, carry[4:])
			payload += size
			carry = nil
		}
		// Whole records inside the block, parsed in place.
		for {
			avail := len(data) - pos
			if avail < 4 {
				break
			}
			size := int(int32(binary.LittleEndian.Uint32(data[pos:])))
			if size < minRecordBody {
				b.err = fmt.Errorf("%w: block_size %d", ErrInvalidRecord, size)
				pipe.Submit(b)
				return
			}
			if avail-4 < size {
				break
			}
			b.bodies = append(b.bodies, data[pos+4:pos+4+size])
			payload += size
			pos += 4 + size
		}
		// Tail: the start of a record continuing in the next block.
		if pos < len(data) {
			carry = append([]byte(nil), data[pos:]...)
		}
		if payload >= s.batchBytes {
			pipe.Submit(b)
			b = s.batch()
			payload = 0
		}
	}
	// Close requested mid-stream: the partial batch never ships.
	s.retire(b)
}

// feedFinalErr maps the codec's end-of-stream against any half-read
// record, mirroring the cursor's truncation errors.
func feedFinalErr(err error, carry []byte) error {
	if len(carry) == 0 {
		return err
	}
	return truncatedErr(err, len(carry) < 4)
}

// decode is the worker function: materialise every body in the batch.
// Records are allocated fresh per batch — DecodeRecord's tag slices
// alias the record struct, so pooling them would let a consumer-retained
// record be overwritten. A decode failure truncates the batch at the
// failing record and replaces any later-positioned scan error.
func (s *ParallelScanner) decode(b *decodeBatch) {
	b.recs = make([]sam.Record, len(b.bodies))
	for i := range b.bodies {
		if err := DecodeRecord(b.bodies[i], &b.recs[i], s.header); err != nil {
			b.recs = b.recs[:i]
			b.err = err
			break
		}
	}
	if s.met != nil {
		s.met.Add(int64(len(b.recs)))
	}
}

// batch draws a recycled batch from the pool.
func (s *ParallelScanner) batch() *decodeBatch {
	return s.batchPool.Get().(*decodeBatch)
}

// retire recycles a consumed batch: the block buffers flow back to the
// codec's inflate pool, the batch struct to the batch pool. The decoded
// records are NOT pooled — consumers may retain them. Body slices are
// cleared so the pooled batch cannot pin retired blocks or stitched
// carry buffers.
func (s *ParallelScanner) retire(b *decodeBatch) {
	for i, d := range b.datas {
		if d != nil {
			s.src.Recycle(d)
		}
		b.datas[i] = nil
	}
	b.datas = b.datas[:0]
	clear(b.bodies)
	b.bodies = b.bodies[:0]
	b.recs = nil
	b.err = nil
	s.batchPool.Put(b)
}

// Next decodes the next record into rec. It returns false at the clean
// end of the stream, and false with an error on failure.
func (s *ParallelScanner) Next(rec *sam.Record) (bool, error) {
	if s.seq != nil {
		return s.nextSeq(rec)
	}
	if s.err != nil {
		if s.err == io.EOF {
			return false, nil
		}
		return false, s.err
	}
	for {
		if s.cur != nil {
			if s.idx < len(s.cur.recs) {
				*rec = s.cur.recs[s.idx]
				s.idx++
				return true, nil
			}
			err := s.cur.err
			s.retire(s.cur)
			s.cur = nil
			if err != nil {
				s.err = err
				if err == io.EOF {
					return false, nil
				}
				return false, err
			}
		}
		b, ok := <-s.pipe.Out()
		if !ok {
			// The feeder always submits a final error batch; a bare close
			// only happens after it was consumed.
			s.err = io.EOF
			return false, nil
		}
		s.cur, s.idx = b, 0
	}
}

// nextSeq is Next on the sequential bypass: zero-copy bodies from the
// BodyScanner decoded on the caller's goroutine. No feeder, no channel,
// no batch round trips — the only cost over a plain ReadInto loop is
// one nil check, and the zero-copy block parsing makes it faster.
func (s *ParallelScanner) nextSeq(rec *sam.Record) (bool, error) {
	if s.err != nil {
		if s.err == io.EOF {
			return false, nil
		}
		return false, s.err
	}
	body, err := s.seq.Next()
	if err != nil {
		s.err = err
		if err == io.EOF {
			return false, nil
		}
		return false, err
	}
	if err := DecodeRecord(body, rec, s.header); err != nil {
		s.err = err
		return false, err
	}
	if s.met != nil {
		s.met.Add(1)
	}
	return true, nil
}

// ReadInto adapts Next to the Reader-style contract (io.EOF at the
// end), so the scanner satisfies the same record-source interfaces.
func (s *ParallelScanner) ReadInto(rec *sam.Record) error {
	ok, err := s.Next(rec)
	if err != nil {
		return err
	}
	if !ok {
		return io.EOF
	}
	return nil
}

// Err returns the sticky error, nil at a clean EOF.
func (s *ParallelScanner) Err() error {
	if s.err == io.EOF {
		return nil
	}
	return s.err
}

// Close stops the feeder and drains the decode pipeline. It does not
// close the underlying Reader — close the scanner first, then the
// reader. Safe to call after EOF or mid-stream.
func (s *ParallelScanner) Close() error {
	if s.seq != nil {
		if s.err == nil || s.err == io.EOF {
			s.err = errors.New("bam: parallel scanner closed")
		}
		return nil
	}
	if s.pipe == nil {
		return nil
	}
	s.stop.Store(true)
	if s.cur != nil {
		s.retire(s.cur)
		s.cur = nil
	}
	for b := range s.pipe.Out() {
		s.retire(b)
	}
	s.pipe = nil
	if s.err == nil || s.err == io.EOF {
		s.err = errors.New("bam: parallel scanner closed")
	}
	return nil
}
