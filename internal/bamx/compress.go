package bamx

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"

	"time"

	"parseq/internal/bam"
	"parseq/internal/bgzf"
	"parseq/internal/obs"
	"parseq/internal/parpipe"
	"parseq/internal/sam"
)

// Compressed BAMX ("BAMZ") implements the paper's future-work plan to
// "utilize certain compression techniques during the BAMX/BAIX file
// generation" (Section VII) without giving up the random access the
// format exists for: records are grouped into fixed-count blocks, each
// deflate-compressed independently, and a block-offset table at the end
// of the file maps any record index to its block by arithmetic —
// record i lives at intra-block offset (i mod recsPerBlock)·stride of
// block i/recsPerBlock.
//
// File layout:
//
//	magic "BAMZ\x01"
//	caps (4×uint32) | recsPerBlock uint32 | l_text uint32 | SAM header text
//	compressed blocks…
//	block table: (n_blocks+1) × uint64 absolute offsets
//	footer: table offset uint64 | record count uint64 | magic again
var compressedMagic = []byte{'B', 'A', 'M', 'Z', 1}

const compressedFooterSize = 8 + 8 + 5

// DefaultRecsPerBlock groups records so a block decompresses to roughly
// 256 KiB at typical strides.
const DefaultRecsPerBlock = 512

// Format limits: one decompressed block may not exceed maxBlockBytes and
// records per block may not exceed maxRecsPerBlock. Readers enforce them
// so corrupt headers cannot demand unbounded allocations.
const (
	maxRecsPerBlock = 1 << 20
	maxBlockBytes   = 1 << 30
)

// CompressedWriter emits a compressed BAMX file. The output is streamed;
// the block table lands at the end, so a plain io.Writer suffices.
type CompressedWriter struct {
	w            io.Writer
	header       *sam.Header
	caps         Caps
	recsPerBlock int
	stride       int

	rec     []byte // stride-sized padding scratch
	body    []byte // BAM-encoding scratch
	block   []byte // pending uncompressed block
	scratch bytes.Buffer
	fw      *flate.Writer // reused across blocks on the sequential path
	offsets []uint64      // absolute offset of each block start
	written int64
	count   int64
	err     error

	// Parallel deflate pipeline (nil when workers <= 1). Blocks are
	// independent flate streams, so they compress concurrently on the
	// process-wide bgzf.SharedPool and the drain goroutine retires them
	// in order, owning offsets/written until drained is closed.
	pipe    *parpipe.Pipe[*zblock]
	shared  bool // pipe rides bgzf.SharedPool: feed its throughput sizer
	drained chan struct{}
	blkPool sync.Pool // raw block buffers
	defPool sync.Pool // *flate.Writer per worker job
	mu      sync.Mutex
	perr    error // first error in stream order (deflate or sink)

	// Telemetry (nil when disabled): block/byte throughput and per-block
	// deflate latency under the bamz.deflate.* prefix.
	metBlocks   *obs.Counter
	metBytesIn  *obs.Counter
	metBytesOut *obs.Counter
	metLatency  *obs.Histogram
}

// zblock is one BAMZ block moving through the parallel pipeline.
type zblock struct {
	raw  []byte
	comp bytes.Buffer
	err  error
}

// NewCompressedWriterWorkers writes the header and returns a record
// writer with block deflation fanned out on the process-wide
// bgzf.SharedPool (≤1 keeps it on the caller); `workers` sizes the writer's in-flight window while the pool
// adapts its own worker count to aggregate demand, BAMZ blocks
// included. Output is byte-identical regardless of worker count: blocks
// are retired in submission order and flate with a fixed level is
// deterministic.
func NewCompressedWriterWorkers(w io.Writer, h *sam.Header, caps Caps, recsPerBlock, workers int) (*CompressedWriter, error) {
	if caps.QName < 2 || caps.Seq < 1 {
		return nil, fmt.Errorf("bamx: degenerate caps %+v", caps)
	}
	if recsPerBlock < 1 {
		recsPerBlock = DefaultRecsPerBlock
	}
	if recsPerBlock > maxRecsPerBlock || int64(recsPerBlock)*int64(caps.Stride()) > maxBlockBytes {
		return nil, fmt.Errorf("bamx: %d records × %d-byte stride exceeds the block limit",
			recsPerBlock, caps.Stride())
	}
	text := h.String()
	hdr := make([]byte, 0, 40+len(text))
	hdr = append(hdr, compressedMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(caps.QName))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(caps.CigarOps))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(caps.Seq))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(caps.Aux))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(recsPerBlock))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(text)))
	hdr = append(hdr, text...)
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	stride := caps.Stride()
	cw := &CompressedWriter{
		w:            w,
		header:       h,
		caps:         caps,
		recsPerBlock: recsPerBlock,
		stride:       stride,
		rec:          make([]byte, stride),
		block:        make([]byte, 0, recsPerBlock*stride),
		written:      int64(len(hdr)),
	}
	if reg := obs.Default(); reg != nil {
		cw.metBlocks = reg.Counter("bamz.deflate.blocks")
		cw.metBytesIn = reg.Counter("bamz.deflate.bytes_in")
		cw.metBytesOut = reg.Counter("bamz.deflate.bytes_out")
		cw.metLatency = reg.Histogram("bamz.deflate.latency_ns")
	}
	if workers > 1 {
		cw.blkPool.New = func() any { return make([]byte, 0, recsPerBlock*stride) }
		// Attach to the shared deflate pool rather than spinning up a
		// private one: a conversion run already runs BGZF writers and
		// sorter spills on it, and one sizer seeing every deflate stream
		// beats several pools guessing independently.
		cw.shared = true
		cw.pipe = parpipe.NewOnPool(bgzf.SharedPool(), 4*workers, cw.deflateBlock, obs.Default(), "bamz.deflate")
		cw.drained = make(chan struct{})
		go cw.drain()
	}
	return cw, nil
}

// deflateBlock is the worker function: compress one block's raw bytes.
func (w *CompressedWriter) deflateBlock(b *zblock) {
	if w.metLatency != nil || w.shared {
		t0 := time.Now()
		defer func() {
			d := time.Since(t0)
			if w.shared {
				bgzf.ObserveSharedDeflate(len(b.raw), d)
			}
			if w.metLatency != nil {
				w.metLatency.Observe(d.Nanoseconds())
				w.metBlocks.Add(1)
				w.metBytesIn.Add(int64(len(b.raw)))
				if b.err == nil {
					w.metBytesOut.Add(int64(b.comp.Len()))
				}
			}
		}()
	}
	fw, _ := w.defPool.Get().(*flate.Writer)
	if fw == nil {
		var err error
		fw, err = flate.NewWriter(&b.comp, flate.DefaultCompression)
		if err != nil {
			b.err = err
			return
		}
	} else {
		fw.Reset(&b.comp)
	}
	if _, err := fw.Write(b.raw); err != nil {
		b.err = err
		return
	}
	if err := fw.Close(); err != nil {
		b.err = err
		return
	}
	w.defPool.Put(fw)
}

// drain retires compressed blocks in submission order, writing them to
// the sink and recording their offsets. It owns offsets and written
// until drained closes; the first error in stream order wins.
func (w *CompressedWriter) drain() {
	defer close(w.drained)
	for b := range w.pipe.Out() {
		w.mu.Lock()
		failed := w.perr != nil
		w.mu.Unlock()
		if !failed {
			var err error
			if b.err != nil {
				err = b.err
			} else {
				w.offsets = append(w.offsets, uint64(w.written))
				var n int
				n, err = w.w.Write(b.comp.Bytes())
				w.written += int64(n)
			}
			if err != nil {
				w.mu.Lock()
				w.perr = err
				w.mu.Unlock()
			}
		}
		b.comp.Reset()
		w.blkPool.Put(b.raw[:0])
		b.raw = nil
	}
}

// Write appends one alignment.
func (w *CompressedWriter) Write(rec *sam.Record) error {
	if w.err != nil {
		return w.err
	}
	var err error
	w.body, err = bam.EncodeRecord(w.body[:0], rec, w.header)
	if err != nil {
		w.err = err
		return err
	}
	return w.WriteEncoded(w.body[4:])
}

// WriteEncoded appends one record from its BAM-encoded body.
func (w *CompressedWriter) WriteEncoded(body []byte) error {
	if w.err != nil {
		return w.err
	}
	if err := padRecord(w.rec, body, w.caps); err != nil {
		w.err = err
		return err
	}
	w.block = append(w.block, w.rec...)
	w.count++
	if len(w.block) == w.recsPerBlock*w.stride {
		return w.flushBlock()
	}
	return nil
}

// Count returns the records written so far.
func (w *CompressedWriter) Count() int64 { return w.count }

func (w *CompressedWriter) flushBlock() error {
	if len(w.block) == 0 {
		return nil
	}
	if w.pipe != nil {
		w.mu.Lock()
		err := w.perr
		w.mu.Unlock()
		if err != nil {
			w.err = err
			return err
		}
		// Hand the pending block to the pipeline and continue filling a
		// recycled buffer; the drain goroutine writes it out in order.
		raw := w.block
		w.block = w.blkPool.Get().([]byte)[:0]
		w.pipe.Submit(&zblock{raw: raw})
		return nil
	}
	var t0 time.Time
	if w.metLatency != nil {
		t0 = time.Now()
	}
	w.offsets = append(w.offsets, uint64(w.written))
	w.scratch.Reset()
	if w.fw == nil {
		fw, err := flate.NewWriter(&w.scratch, flate.DefaultCompression)
		if err != nil {
			w.err = err
			return err
		}
		w.fw = fw
	} else {
		w.fw.Reset(&w.scratch)
	}
	if _, err := w.fw.Write(w.block); err != nil {
		w.err = err
		return err
	}
	if err := w.fw.Close(); err != nil {
		w.err = err
		return err
	}
	if w.metLatency != nil {
		w.metLatency.Observe(time.Since(t0).Nanoseconds())
		w.metBlocks.Add(1)
		w.metBytesIn.Add(int64(len(w.block)))
		w.metBytesOut.Add(int64(w.scratch.Len()))
	}
	n, err := w.w.Write(w.scratch.Bytes())
	if err != nil {
		w.err = err
		return err
	}
	w.written += int64(n)
	w.block = w.block[:0]
	return nil
}

// Close flushes the final block and writes the table and footer.
func (w *CompressedWriter) Close() error {
	if w.err != nil {
		if w.pipe != nil {
			w.pipe.Close()
			<-w.drained
			w.pipe = nil
		}
		return w.err
	}
	if err := w.flushBlock(); err != nil {
		if w.pipe != nil {
			w.pipe.Close()
			<-w.drained
			w.pipe = nil
		}
		return err
	}
	if w.pipe != nil {
		// Wait for every in-flight block to land before the table is
		// positioned: offsets and written are final once drained closes.
		w.pipe.Close()
		<-w.drained
		w.pipe = nil
		if w.perr != nil {
			w.err = w.perr
			return w.err
		}
	}
	tableOffset := uint64(w.written)
	table := make([]byte, 0, 8*(len(w.offsets)+1)+compressedFooterSize)
	for _, off := range w.offsets {
		table = binary.LittleEndian.AppendUint64(table, off)
	}
	// Sentinel: end of the last block = start of the table.
	table = binary.LittleEndian.AppendUint64(table, tableOffset)
	table = binary.LittleEndian.AppendUint64(table, tableOffset)
	table = binary.LittleEndian.AppendUint64(table, uint64(w.count))
	table = append(table, compressedMagic...)
	if _, err := w.w.Write(table); err != nil {
		w.err = err
		return err
	}
	w.err = fmt.Errorf("bamx: compressed writer closed")
	return nil
}

// CompressedFile provides random access to a compressed BAMX file.
type CompressedFile struct {
	r            io.ReaderAt
	header       *sam.Header
	caps         Caps
	recsPerBlock int
	stride       int
	count        int64
	offsets      []uint64 // block starts plus end sentinel

	cachedBlock int64 // index of the cached decompressed block, -1 if none
	cache       []byte

	ra *blockReadahead // non-nil after StartReadahead
}

// OpenCompressed validates the footer and table of a compressed BAMX
// file of the given total size.
func OpenCompressed(r io.ReaderAt, size int64) (*CompressedFile, error) {
	fixed := make([]byte, len(compressedMagic)+24)
	if _, err := r.ReadAt(fixed, 0); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotBAMX, err)
	}
	if string(fixed[:len(compressedMagic)]) != string(compressedMagic) {
		return nil, ErrNotBAMX
	}
	p := fixed[len(compressedMagic):]
	caps := Caps{
		QName:    int(binary.LittleEndian.Uint32(p[0:])),
		CigarOps: int(binary.LittleEndian.Uint32(p[4:])),
		Seq:      int(binary.LittleEndian.Uint32(p[8:])),
		Aux:      int(binary.LittleEndian.Uint32(p[12:])),
	}
	recsPerBlock := int(binary.LittleEndian.Uint32(p[16:]))
	textLen := int(binary.LittleEndian.Uint32(p[20:]))
	if recsPerBlock < 1 || recsPerBlock > maxRecsPerBlock || caps.Stride() <= prefixSize ||
		int64(recsPerBlock)*int64(caps.Stride()) > maxBlockBytes {
		return nil, ErrCorrupt
	}
	text := make([]byte, textLen)
	if _, err := r.ReadAt(text, int64(len(fixed))); err != nil {
		return nil, fmt.Errorf("%w: header text: %v", ErrCorrupt, err)
	}
	h, err := sam.ParseHeader(string(text))
	if err != nil {
		return nil, err
	}

	footer := make([]byte, compressedFooterSize)
	if size < int64(len(footer)) {
		return nil, ErrCorrupt
	}
	if _, err := r.ReadAt(footer, size-int64(len(footer))); err != nil {
		return nil, fmt.Errorf("%w: footer: %v", ErrCorrupt, err)
	}
	if string(footer[16:]) != string(compressedMagic) {
		return nil, fmt.Errorf("%w: bad footer magic", ErrCorrupt)
	}
	tableOffset := int64(binary.LittleEndian.Uint64(footer))
	count := int64(binary.LittleEndian.Uint64(footer[8:]))
	if count < 0 || tableOffset < int64(len(fixed)+textLen) || tableOffset > size {
		return nil, fmt.Errorf("%w: footer values out of range", ErrCorrupt)
	}
	nBlocks := (count + int64(recsPerBlock) - 1) / int64(recsPerBlock)
	// count is untrusted: bound the table size by the bytes actually
	// between the table offset and the footer (guards OOM and overflow).
	tableRoom := (size - compressedFooterSize - tableOffset) / 8
	if nBlocks < 0 || nBlocks+1 > tableRoom {
		return nil, fmt.Errorf("%w: table truncated (%d blocks declared, room for %d entries)",
			ErrCorrupt, nBlocks, tableRoom)
	}
	tableBytes := 8 * (nBlocks + 1)
	raw := make([]byte, tableBytes)
	if _, err := r.ReadAt(raw, tableOffset); err != nil {
		return nil, fmt.Errorf("%w: table: %v", ErrCorrupt, err)
	}
	offsets := make([]uint64, nBlocks+1)
	for i := range offsets {
		offsets[i] = binary.LittleEndian.Uint64(raw[8*i:])
		if i > 0 && offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("%w: table not monotone", ErrCorrupt)
		}
		// Offsets address the data section; anything past the table start
		// would make a block "contain" the table or footer.
		if offsets[i] > uint64(tableOffset) {
			return nil, fmt.Errorf("%w: block offset beyond table", ErrCorrupt)
		}
	}
	return &CompressedFile{
		r:            r,
		header:       h,
		caps:         caps,
		recsPerBlock: recsPerBlock,
		stride:       caps.Stride(),
		count:        count,
		offsets:      offsets,
		cachedBlock:  -1,
	}, nil
}

// Header returns the embedded SAM header.
func (f *CompressedFile) Header() *sam.Header { return f.header }

// Caps returns the file's field capacities.
func (f *CompressedFile) Caps() Caps { return f.caps }

// NumRecords returns the record count.
func (f *CompressedFile) NumRecords() int64 { return f.count }

// NumBlocks returns the number of compressed blocks.
func (f *CompressedFile) NumBlocks() int { return len(f.offsets) - 1 }

// loadBlock decompresses block b into the single-block cache — inline
// on the calling goroutine, or via the readahead pipeline when
// StartReadahead is active, in which case the block was usually
// inflated before this cache miss.
func (f *CompressedFile) loadBlock(b int64) error {
	if b == f.cachedBlock {
		return nil
	}
	if b < 0 || int(b) >= f.NumBlocks() {
		return fmt.Errorf("bamx: block %d out of range [0, %d)", b, f.NumBlocks())
	}
	if f.ra != nil {
		data, err := f.ra.fetch(b)
		if err != nil {
			return err
		}
		f.ra.recycleData(f.cache)
		f.cache = data
		f.cachedBlock = b
		return nil
	}
	compLen := int64(f.offsets[b+1] - f.offsets[b])
	comp := make([]byte, compLen)
	if _, err := f.r.ReadAt(comp, int64(f.offsets[b])); err != nil {
		return fmt.Errorf("%w: block %d: %v", ErrCorrupt, b, err)
	}
	recs := int64(f.recsPerBlock)
	if rem := f.count - b*recs; rem < recs {
		recs = rem
	}
	want := int(recs) * f.stride
	if cap(f.cache) < want {
		f.cache = make([]byte, want)
	}
	f.cache = f.cache[:want]
	fr := flate.NewReader(bytes.NewReader(comp))
	if _, err := io.ReadFull(fr, f.cache); err != nil {
		return fmt.Errorf("%w: block %d: %v", ErrCorrupt, b, err)
	}
	f.cachedBlock = b
	return nil
}

// ReadRecord random-accesses record i through the plain-file view.
// Consecutive accesses within one block reuse the decompressed cache.
func (f *CompressedFile) ReadRecord(i int64, rec *sam.Record) error {
	return f.File().ReadRecord(i, rec)
}

// ReadAt serves the uncompressed record area (offset 0 is record 0),
// inflating the blocks the read touches: what File reads through.
func (f *CompressedFile) ReadAt(p []byte, off int64) (n int, err error) {
	blockBytes := int64(f.recsPerBlock) * int64(f.stride)
	for n < len(p) {
		if off < 0 || off >= f.count*int64(f.stride) {
			return n, io.EOF
		}
		b := off / blockBytes
		if err := f.loadBlock(b); err != nil {
			return n, err
		}
		c := copy(p[n:], f.cache[off-b*blockBytes:])
		n, off = n+c, off+int64(c)
	}
	return n, nil
}

// File views the compressed file as a plain BAMX file, so one set of
// fixed-stride access paths (Scan, ScanEntries, ReadRaw) reads both.
// The view shares the handle's one-block cache: single-consumer.
func (f *CompressedFile) File() *File {
	return &File{r: f, header: f.header, caps: f.caps, count: f.count}
}

// CompressBAMXWorkers rewrites a plain BAMX file as a compressed one
// with block deflation running on `workers` goroutines (≤1 compresses on
// the calling goroutine), returning the record count.
func CompressBAMXWorkers(src *File, w io.Writer, recsPerBlock, workers int) (int64, error) {
	cw, err := NewCompressedWriterWorkers(w, src.Header(), src.Caps(), recsPerBlock, workers)
	if err != nil {
		return 0, err
	}
	sc := src.Scan(0, src.NumRecords())
	for {
		body, err := sc.NextBody()
		if err == io.EOF {
			return cw.Count(), cw.Close()
		}
		if err == nil {
			err = cw.WriteEncoded(body)
		}
		if err != nil {
			cw.Close() // release deflate workers on the abandoned writer
			return 0, err
		}
	}
}

// CompressFile is CompressBAMXWorkers from the plain BAMX file at
// bamxPath into bamzPath; a failed rewrite leaves no bamzPath behind.
func CompressFile(bamxPath, bamzPath string, recsPerBlock, workers int) (int64, error) {
	in, err := os.Open(bamxPath)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	st, err := in.Stat()
	if err != nil {
		return 0, err
	}
	src, err := Open(in, st.Size())
	if err != nil {
		return 0, err
	}
	out, err := os.Create(bamzPath)
	if err != nil {
		return 0, err
	}
	n, err := CompressBAMXWorkers(src, out, recsPerBlock, workers)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(bamzPath)
		return 0, err
	}
	return n, nil
}
