package bam

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"parseq/internal/bgzf"
	"parseq/internal/sam"
)

// Option configures how a Reader or Writer drives the BGZF codec.
type Option func(*codecOptions)

type codecOptions struct {
	workers int
}

// WithCodecWorkers passes n, the BGZF codec worker count, to the bgzf
// constructors, which alone read it (see package bgzf). Without the
// option blocks run on the caller, as at n == 1. Every count produces
// bit-identical streams and virtual offsets, so indexes built against
// one resolve on all.
func WithCodecWorkers(n int) Option {
	return func(o *codecOptions) { o.workers = n }
}

func applyOptions(opts []Option) codecOptions {
	o := codecOptions{workers: 1}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Reader decodes a BAM stream: the BAM header (SAM header text plus the
// binary reference dictionary) eagerly, then one record per Read call.
type Reader struct {
	bg        *bgzf.Reader
	header    *sam.Header
	dataStart bgzf.VOffset // virtual offset of the first record
	buf       []byte       // reusable record buffer, block_size included
	err       error
}

// NewReader wraps a BGZF-compressed BAM stream and decodes the header.
// By default blocks inflate on the calling goroutine; WithCodecWorkers
// places them otherwise.
func NewReader(r io.Reader, opts ...Option) (*Reader, error) {
	br := &Reader{bg: bgzf.NewParallelReader(r, applyOptions(opts).workers)}
	if err := br.readHeader(); err != nil {
		// The parallel codec runs goroutines; release them before
		// reporting the malformed header.
		br.Close()
		return nil, err
	}
	br.dataStart = br.bg.Offset()
	return br, nil
}

func (br *Reader) readHeader() error {
	var magic [4]byte
	if _, err := io.ReadFull(br.bg, magic[:]); err != nil {
		return fmt.Errorf("bam: reading magic: %w", err)
	}
	if string(magic[:]) != string(Magic) {
		return errors.New("bam: bad magic (not a BAM file)")
	}
	var n int32
	if err := binary.Read(br.bg, binary.LittleEndian, &n); err != nil {
		return fmt.Errorf("bam: header length: %w", err)
	}
	if n < 0 {
		return errors.New("bam: negative header length")
	}
	text := make([]byte, n)
	if _, err := io.ReadFull(br.bg, text); err != nil {
		return fmt.Errorf("bam: header text: %w", err)
	}
	h, err := sam.ParseHeader(string(text))
	if err != nil {
		return err
	}
	var nRef int32
	if err := binary.Read(br.bg, binary.LittleEndian, &nRef); err != nil {
		return fmt.Errorf("bam: reference count: %w", err)
	}
	for i := int32(0); i < nRef; i++ {
		var lName int32
		if err := binary.Read(br.bg, binary.LittleEndian, &lName); err != nil {
			return fmt.Errorf("bam: reference %d: %w", i, err)
		}
		if lName <= 0 {
			return fmt.Errorf("bam: reference %d: bad name length %d", i, lName)
		}
		name := make([]byte, lName)
		if _, err := io.ReadFull(br.bg, name); err != nil {
			return fmt.Errorf("bam: reference %d name: %w", i, err)
		}
		if string(name[:lName-1]) == "*" { // RNAME "*" is an unplaced record
			return fmt.Errorf("bam: reference %d: %w: a reference named \"*\"", i, sam.ErrInvalidHeader)
		}
		var lRef int32
		if err := binary.Read(br.bg, binary.LittleEndian, &lRef); err != nil {
			return fmt.Errorf("bam: reference %d length: %w", i, err)
		}
		// The binary dictionary is authoritative; the SAM text usually
		// repeats it, and AddReference deduplicates.
		h.AddReference(string(name[:lName-1]), int(lRef))
	}
	br.header = h
	return nil
}

// Close releases codec resources. It matters for a pooled codec, which
// keeps a worker pool alive until the stream is drained or closed.
func (br *Reader) Close() error { return br.bg.Close() }

// Header returns the decoded header.
func (br *Reader) Header() *sam.Header { return br.header }

// Offset returns the virtual offset of the next record.
func (br *Reader) Offset() bgzf.VOffset { return br.bg.Offset() }

// DataStart returns the virtual offset of the first record — just past
// the header. Seeking here rewinds the stream to the record section,
// which an empty index (no mapped records) cannot describe.
func (br *Reader) DataStart() bgzf.VOffset { return br.dataStart }

// Seek positions the reader at a virtual offset previously obtained from
// Offset or from an index.
func (br *Reader) Seek(v bgzf.VOffset) error {
	if err := br.bg.Seek(v); err != nil {
		return err
	}
	br.err = nil
	return nil
}

// ReadInto decodes the next record into rec, reusing its storage. It
// returns io.EOF at the end of stream.
func (br *Reader) ReadInto(rec *sam.Record) error {
	body, err := br.ReadBody()
	if err != nil {
		return err
	}
	if err := DecodeRecord(body, rec, br.header); err != nil {
		br.err = err
		return err
	}
	return nil
}

// ReadBody returns the next record's raw encoded body (without the
// block_size prefix). The slice is valid until the next Read* call. It
// is the zero-decode path preprocessors use to measure and relocate
// records without materialising alignment objects.
func (br *Reader) ReadBody() ([]byte, error) {
	if br.err != nil {
		return nil, br.err
	}
	rec, err := readFrame(br.bg, br.buf)
	br.buf = rec
	if err != nil {
		br.err = err
		return nil, err
	}
	return rec[4:], nil
}

// ReadAll consumes the remaining records.
func (br *Reader) ReadAll() ([]sam.Record, error) {
	var recs []sam.Record
	for {
		var rec sam.Record
		if err := br.ReadInto(&rec); err != nil {
			if err == io.EOF {
				err = nil
			}
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// Writer encodes records into a BAM stream.
type Writer struct {
	bg     *bgzf.Writer
	header *sam.Header
	buf    []byte
	err    error
}

// NewWriter wraps w, writing the BAM header immediately. By default
// blocks deflate on the calling goroutine; WithCodecWorkers places them
// otherwise. The emitted bytes are identical either way.
func NewWriter(w io.Writer, h *sam.Header, opts ...Option) (*Writer, error) {
	bw := &Writer{bg: bgzf.NewParallelWriter(w, applyOptions(opts).workers), header: h}
	text := h.String()
	hdr := make([]byte, 0, 16+len(text))
	hdr = append(hdr, Magic...)
	hdr = appendInt32(hdr, int32(len(text)))
	hdr = append(hdr, text...)
	hdr = appendInt32(hdr, int32(len(h.Refs)))
	for _, ref := range h.Refs {
		hdr = appendInt32(hdr, int32(len(ref.Name)+1))
		hdr = append(hdr, ref.Name...)
		hdr = append(hdr, 0)
		hdr = appendInt32(hdr, int32(ref.Length))
	}
	if _, err := bw.bg.Write(hdr); err != nil {
		bw.bg.Close()
		return nil, err
	}
	return bw, nil
}

// Offset returns the virtual offset the next record will be written at.
// Callers building an index record this before each Write.
func (bw *Writer) Offset() bgzf.VOffset { return bw.bg.Offset() }

// Write encodes one record.
func (bw *Writer) Write(rec *sam.Record) error {
	if bw.err != nil {
		return bw.err
	}
	var err error
	bw.buf, err = EncodeRecord(bw.buf[:0], rec, bw.header)
	if err != nil {
		bw.err = err
		return err
	}
	if _, err := bw.bg.Write(bw.buf); err != nil {
		bw.err = err
		return err
	}
	return nil
}

// WriteEncoded writes one or more records already encoded with
// EncodeRecord (block_size prefixes included). The BGZF layer is
// agnostic to write granularity, so a batch of pre-encoded records
// produces bytes identical to the equivalent per-record Write calls —
// this is the handoff the pipelined converter uses to move record
// encoding onto its parse workers.
func (bw *Writer) WriteEncoded(p []byte) error {
	if bw.err != nil {
		return bw.err
	}
	if len(p) == 0 {
		return nil
	}
	if _, err := bw.bg.Write(p); err != nil {
		bw.err = err
		return err
	}
	return nil
}

// Close flushes pending blocks and writes the BGZF EOF marker.
func (bw *Writer) Close() error {
	if bw.err != nil {
		// Still release the codec (worker pool, buffers) before
		// reporting the sticky error.
		bw.bg.Close()
		return bw.err
	}
	return bw.bg.Close()
}
