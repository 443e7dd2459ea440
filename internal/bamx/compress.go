package bamx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"parseq/internal/bgzf"
	"parseq/internal/sam"
)

// Compressed BAMX ("BAMZ") implements the paper's future-work plan to
// "utilize certain compression techniques during the BAMX/BAIX file
// generation" (Section VII) without giving up the random access the
// format exists for. The padded record area is one BGZF stream whose
// members each carry P uncompressed bytes, and a member table at the end
// of the file (htslib's .gzi, kept inside the file) maps any record-area
// offset to its member by arithmetic: byte o lives at intra-member offset
// o mod P of member o/P, so record i starts at the virtual offset
// (table[i·stride/P], i·stride mod P).
//
// File layout:
//
//	magic "BAMZ\x02"
//	caps (4×uint32) | P uint32 | l_text uint32 | SAM header text
//	data section: the record area as BGZF members of P bytes (the last
//	  one shorter or equal), then the BGZF EOF marker
//	member table: (n_members+1) × uint64 member starts relative to the
//	  data section, the EOF marker's last
//	footer: table offset uint64 | record count uint64 | magic again
//
// Cut out of the file, the data section is a complete BGZF (so gzip)
// file holding exactly the plain BAMX record area.
var compressedMagic = []byte{'B', 'A', 'M', 'Z', 2}

// ErrBAMZv1 reports a file in the first BAMZ layout, whose blocks were
// bare DEFLATE streams with no BGZF framing or checksum.
var ErrBAMZv1 = errors.New("bamx: BAMZ v1 file is no longer read; re-create it from its BAMX with `bamxtool compress`")

const compressedFooterSize = 8 + 8 + 5

// DefaultRecsPerBlock is the record count whose padded bytes fill a
// member; at typical strides that is past the BGZF payload limit, so
// members carry bgzf.MaxPayload bytes.
const DefaultRecsPerBlock = 512

// CompressedWriter emits a compressed BAMX file. The output is streamed;
// the member table lands at the end, so a plain io.Writer suffices.
type CompressedWriter struct {
	w         io.Writer
	caps      Caps
	rec       []byte // stride-sized padding scratch
	bg        *bgzf.Writer
	sink      memberSink
	dataStart int64
	count     int64
	err       error
}

// memberSink passes a BGZF writer's output through to the file,
// recording where each member starts. Every bgzf writer issues exactly
// one Write per member, the EOF marker included; the sink checks the
// gzip magic and that the member's BSIZE spans the write, so a writer
// that split or coalesced members fails the file instead of corrupting
// its table.
type memberSink struct {
	w       io.Writer
	n       int64    // data-section bytes written
	offsets []uint64 // member starts, relative to the data section
}

func (s *memberSink) Write(p []byte) (int, error) {
	if len(p) < bgzf.MinBlockSize || p[0] != 0x1f || p[1] != 0x8b || int(binary.LittleEndian.Uint16(p[16:]))+1 != len(p) {
		return 0, fmt.Errorf("bamx: a %d-byte BGZF write is not one whole member", len(p))
	}
	s.offsets = append(s.offsets, uint64(s.n))
	n, err := s.w.Write(p)
	s.n += int64(n)
	return n, err
}

// NewCompressedWriterWorkers writes the header and returns a record
// writer whose members carry min(recsPerBlock × stride, bgzf.MaxPayload)
// bytes (recsPerBlock < 1 selects DefaultRecsPerBlock), deflating where
// the codec worker count places them (bgzf.NewParallelWriterSize). The
// bytes do not depend on the worker count.
func NewCompressedWriterWorkers(w io.Writer, h *sam.Header, caps Caps, recsPerBlock, workers int) (*CompressedWriter, error) {
	if caps.QName < 2 || caps.Seq < 1 {
		return nil, fmt.Errorf("bamx: degenerate caps %+v", caps)
	}
	if recsPerBlock < 1 {
		recsPerBlock = DefaultRecsPerBlock
	}
	payload := int(min(int64(recsPerBlock)*int64(caps.Stride()), bgzf.MaxPayload))
	hdr := encodeHeader(compressedMagic, h, caps, uint32(payload))
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	cw := &CompressedWriter{
		w:         w,
		caps:      caps,
		rec:       make([]byte, caps.Stride()),
		sink:      memberSink{w: w},
		dataStart: int64(len(hdr)),
	}
	cw.bg = bgzf.NewParallelWriterSize(&cw.sink, payload, workers)
	return cw, nil
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
	if _, err := w.bg.Write(w.rec); err != nil {
		w.err = err
		return err
	}
	w.count++
	return nil
}

// Count returns the records written so far.
func (w *CompressedWriter) Count() int64 { return w.count }

// Close ends the BGZF stream and writes the member table and footer. A
// writer that failed still releases its deflate workers here.
func (w *CompressedWriter) Close() error {
	if w.err != nil {
		w.bg.Close()
		return w.err
	}
	if err := w.bg.Close(); err != nil {
		w.err = err
		return err
	}
	tableOffset := w.dataStart + w.sink.n
	table := make([]byte, 0, 8*len(w.sink.offsets)+compressedFooterSize)
	for _, off := range w.sink.offsets {
		table = binary.LittleEndian.AppendUint64(table, off)
	}
	table = binary.LittleEndian.AppendUint64(table, uint64(tableOffset))
	table = binary.LittleEndian.AppendUint64(table, uint64(w.count))
	table = append(table, compressedMagic...)
	if _, err := w.w.Write(table); err != nil {
		w.err = err
		return err
	}
	w.err = errors.New("bamx: compressed writer closed")
	return nil
}

// CompressedFile provides random access to a compressed BAMX file. It
// reads the data section through one bgzf.Reader, inflating on the
// caller or (after StartReadahead) where the codec worker count places
// the members, and is single-consumer.
type CompressedFile struct {
	r       io.ReaderAt
	header  *sam.Header
	caps    Caps
	payload int64    // P: uncompressed bytes per member
	count   int64    // records
	size    int64    // record-area bytes: count × stride
	data    int64    // data section start
	dataLen int64    // data section length, EOF marker included
	table   []uint64 // member starts within the data section, EOF marker last

	src     *bgzf.Reader // nil until the first read
	workers int          // codec workers src opens with; 1, the caller, until StartReadahead
	next    int64        // record-area offset src delivers next; -1 if unknown
	blk     []byte       // the last member (from its delivered offset) NextBlock returned
	blkAt   int64        // record-area offset of blk[0]
}

// OpenCompressed validates the header, footer and member table of a
// compressed BAMX file of the given total size.
func OpenCompressed(r io.ReaderAt, size int64) (*CompressedFile, error) {
	magic := make([]byte, len(compressedMagic))
	if r.ReadAt(magic, 0); string(magic) == "BAMZ\x01" {
		return nil, ErrBAMZv1
	}
	p, err := readPrologue(r, size, compressedMagic, 1)
	if err != nil {
		return nil, err
	}
	payload, stride, data := int64(p.words[0]), int64(p.caps.Stride()), p.size
	if payload < 1 || payload > bgzf.MaxPayload || data+bgzf.MinBlockSize+compressedFooterSize > size {
		return nil, fmt.Errorf("%w: %d-byte members in a %d-byte file", ErrCorrupt, payload, size)
	}

	footer := make([]byte, compressedFooterSize)
	if _, err := r.ReadAt(footer, size-compressedFooterSize); err != nil {
		return nil, fmt.Errorf("%w: footer: %v", ErrCorrupt, err)
	}
	if string(footer[16:]) != string(compressedMagic) {
		return nil, fmt.Errorf("%w: bad footer magic", ErrCorrupt)
	}
	tableOffset := int64(binary.LittleEndian.Uint64(footer))
	count := int64(binary.LittleEndian.Uint64(footer[8:]))
	if count < 0 || count > math.MaxInt64/stride || tableOffset < data+bgzf.MinBlockSize || tableOffset > size-compressedFooterSize {
		return nil, fmt.Errorf("%w: footer values out of range", ErrCorrupt)
	}
	// count is untrusted: the table it implies must fill the bytes between
	// the table offset and the footer exactly (guards OOM and overflow).
	area := count * stride
	members := (area + payload - 1) / payload
	if tableBytes := size - compressedFooterSize - tableOffset; tableBytes/8 <= members || tableBytes != 8*(members+1) {
		return nil, fmt.Errorf("%w: %d-byte member table for %d members", ErrCorrupt, tableBytes, members)
	}
	raw := make([]byte, 8*(members+1))
	if _, err := r.ReadAt(raw, tableOffset); err != nil {
		return nil, fmt.Errorf("%w: member table: %v", ErrCorrupt, err)
	}
	table := make([]uint64, members+1)
	for i := range table {
		table[i] = binary.LittleEndian.Uint64(raw[8*i:])
		if i > 0 && (table[i] < table[i-1]+bgzf.MinBlockSize || table[i] > table[i-1]+bgzf.MaxBlockSize) {
			return nil, fmt.Errorf("%w: member %d spans [%d, %d)", ErrCorrupt, i-1, table[i-1], table[i])
		}
	}
	// The first member opens the data section, and the sentinel, the EOF
	// marker, closes it.
	dataLen, eof := tableOffset-data, make([]byte, bgzf.MinBlockSize)
	if _, err := r.ReadAt(eof, tableOffset-bgzf.MinBlockSize); err != nil || table[0] != 0 ||
		table[members]+bgzf.MinBlockSize != uint64(dataLen) || string(eof) != string(bgzf.EOFMarker()) {
		return nil, fmt.Errorf("%w: member table [%d, %d] does not frame a %d-byte data section ending in the BGZF EOF marker",
			ErrCorrupt, table[0], table[members], dataLen)
	}
	return &CompressedFile{
		r:       r,
		header:  p.header,
		caps:    p.caps,
		payload: payload,
		count:   count,
		size:    area,
		data:    data,
		dataLen: dataLen,
		table:   table,
		workers: 1,
		next:    -1,
	}, nil
}

// Header returns the embedded SAM header.
func (f *CompressedFile) Header() *sam.Header { return f.header }

// Caps returns the file's field capacities.
func (f *CompressedFile) Caps() Caps { return f.caps }

// NumRecords returns the record count.
func (f *CompressedFile) NumRecords() int64 { return f.count }

// NumBlocks returns the number of BGZF data members.
func (f *CompressedFile) NumBlocks() int { return len(f.table) - 1 }

// StartReadahead swaps the inline reader for one opened with the given
// codec worker count (bgzf.NewParallelReader), which past the caller
// reads ahead, so the members a mostly sequential consumer reads next
// are usually inflated before it asks. Random access still works: a jump
// re-seeks the reader, and a later call replaces the reader the same
// way. It is a no-op when the file has no members. Call Close when
// abandoning the file, or the pipeline goroutines are left parked.
func (f *CompressedFile) StartReadahead(workers int) {
	if f.NumBlocks() == 0 {
		return
	}
	f.Close()
	f.workers = workers
}

// Close stops the readahead, if one was started, and returns the file to
// inflating on the caller. The file itself wraps a caller-owned
// ReaderAt and needs no other teardown.
func (f *CompressedFile) Close() error {
	if f.src != nil {
		f.src.Close()
	}
	f.src, f.workers, f.next, f.blk = nil, 1, -1, nil
	return nil
}

// load makes blk the rest of the member holding record-area offset off,
// from off on: the next member of the stream when the reader is already
// there, after a Seek otherwise. Every member is checked against the
// table, so one whose start or length disagrees is ErrCorrupt rather than
// misplaced records.
func (f *CompressedFile) load(off int64) error {
	if f.src == nil {
		f.src = bgzf.NewParallelReader(io.NewSectionReader(f.r, f.data, f.dataLen), f.workers)
		f.next = 0
	}
	if f.blk != nil {
		f.src.Recycle(f.blk)
	}
	m, intra := off/f.payload, off%f.payload
	at := bgzf.MakeVOffset(int64(f.table[m]), int(intra))
	seek := off != f.next
	f.blk, f.blkAt, f.next = nil, off, -1
	if seek {
		if err := f.src.Seek(at); err != nil {
			return fmt.Errorf("%w: member %d: %v", ErrCorrupt, m, err)
		}
	}
	data, v, err := f.src.NextBlock()
	if want := min(f.payload, f.size-m*f.payload) - intra; err == nil && (v != at || int64(len(data)) != want) {
		err = fmt.Errorf("%d bytes at %v, the table says %d at %v", len(data), v, want, at)
	}
	if err != nil {
		return fmt.Errorf("%w: member %d: %v", ErrCorrupt, m, err)
	}
	f.blk, f.next = data, off+int64(len(data))
	return nil
}

// ReadRecord random-accesses record i through the plain-file view.
func (f *CompressedFile) ReadRecord(i int64, rec *sam.Record) error {
	return f.File().ReadRecord(i, rec)
}

// ReadAt serves the uncompressed record area (offset 0 is record 0),
// inflating the members the read touches: what File reads through.
// Reads within the last member inflated reuse it.
func (f *CompressedFile) ReadAt(p []byte, off int64) (n int, err error) {
	for n < len(p) {
		if off < 0 || off >= f.size {
			return n, io.EOF
		}
		if f.blk == nil || off < f.blkAt || off >= f.blkAt+int64(len(f.blk)) {
			if err := f.load(off); err != nil {
				return n, err
			}
		}
		c := copy(p[n:], f.blk[off-f.blkAt:])
		n, off = n+c, off+int64(c)
	}
	return n, nil
}

// File views the compressed file as a plain BAMX file, so one set of
// fixed-stride access paths (Scan, ScanEntries, ReadRaw) reads both.
// The view shares the handle's reader: single-consumer.
func (f *CompressedFile) File() *File {
	return &File{r: f, header: f.header, caps: f.caps, count: f.count}
}

// CompressBAMXWorkers rewrites a plain BAMX file as a compressed one,
// deflating where the codec worker count places the members (see
// NewCompressedWriterWorkers), and returns the record count.
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
