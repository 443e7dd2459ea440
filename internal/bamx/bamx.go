// Package bamx implements the paper's two novel file formats: BAMX (BAM
// eXtended), a fixed-stride re-encoding of BAM records in which every
// varying-length field (read name, CIGAR, sequence, qualities, tags) is
// padded to a per-file maximum so any record can be located by
// multiplication, and BAIX (BAI eXtended), the companion index listing
// every alignment's starting position in increasing order with the
// record's physical index in the BAMX file (Figure 4 of the paper).
//
// Fixed-stride layout is what makes the BAM converter's parallel phase
// embarrassingly parallel: partitioning a BAMX file is "a fast retrieval
// of an equal number of alignments by each processor", and a BAIX binary
// search maps a chromosome region to a contiguous record range for
// partial conversion.
package bamx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"parseq/internal/bam"
	"parseq/internal/sam"
)

// Magic identifies a BAMX file.
var Magic = []byte{'B', 'A', 'M', 'X', 1}

// Errors reported by the codec.
var (
	ErrNotBAMX   = errors.New("bamx: not a BAMX file")
	ErrCorrupt   = errors.New("bamx: corrupt file")
	ErrFieldSize = errors.New("bamx: record field exceeds file capacity")
)

// Caps are the per-file maximum field sizes all records are padded to.
type Caps struct {
	QName    int // maximum read-name length including the NUL terminator
	CigarOps int // maximum number of CIGAR operations
	Seq      int // maximum sequence length in bases
	Aux      int // maximum encoded auxiliary-tag bytes
}

// Observe grows caps to accommodate the BAM-encoded record body.
func (c *Caps) Observe(body []byte) {
	nameLen, nCigar, seqLen, auxLen := bodyLens(body)
	if nameLen > c.QName {
		c.QName = nameLen
	}
	if nCigar > c.CigarOps {
		c.CigarOps = nCigar
	}
	if seqLen > c.Seq {
		c.Seq = seqLen
	}
	if auxLen > c.Aux {
		c.Aux = auxLen
	}
}

// Stride returns the fixed record size the caps imply.
func (c Caps) Stride() int {
	return prefixSize + c.QName + 4*c.CigarOps + (c.Seq+1)/2 + c.Seq + c.Aux
}

// prefixSize is the fixed per-record prefix: the 32-byte BAM fixed
// section plus an int32 recording the real auxiliary-data length (the
// one length the BAM prefix does not carry).
const prefixSize = 36

// bodyLens extracts the variable-section lengths from a BAM record body.
func bodyLens(body []byte) (nameLen, nCigar, seqLen, auxLen int) {
	nameLen = int(body[8])
	nCigar = int(binary.LittleEndian.Uint16(body[12:]))
	seqLen = int(int32(binary.LittleEndian.Uint32(body[16:])))
	auxLen = len(body) - 32 - nameLen - 4*nCigar - (seqLen+1)/2 - seqLen
	return nameLen, nCigar, seqLen, auxLen
}

// padRecord lays the BAM record body out into the fixed-stride BAMX form
// in dst, which must be Stride() bytes and zeroed or fully overwritten.
func padRecord(dst, body []byte, caps Caps) error {
	nameLen, nCigar, seqLen, auxLen := bodyLens(body)
	if auxLen < 0 {
		return fmt.Errorf("%w: inconsistent BAM record lengths", ErrCorrupt)
	}
	if nameLen > caps.QName || nCigar > caps.CigarOps || seqLen > caps.Seq || auxLen > caps.Aux {
		return fmt.Errorf("%w (name %d/%d, cigar %d/%d, seq %d/%d, aux %d/%d)",
			ErrFieldSize, nameLen, caps.QName, nCigar, caps.CigarOps,
			seqLen, caps.Seq, auxLen, caps.Aux)
	}
	copy(dst[:32], body[:32])
	binary.LittleEndian.PutUint32(dst[32:], uint32(auxLen))
	src := body[32:]
	out := dst[prefixSize:]
	zero := func(b []byte) {
		for i := range b {
			b[i] = 0
		}
	}
	// Read name.
	copy(out, src[:nameLen])
	zero(out[nameLen:caps.QName])
	src = src[nameLen:]
	out = out[caps.QName:]
	// CIGAR.
	copy(out, src[:4*nCigar])
	zero(out[4*nCigar : 4*caps.CigarOps])
	src = src[4*nCigar:]
	out = out[4*caps.CigarOps:]
	// Packed sequence.
	copy(out, src[:(seqLen+1)/2])
	zero(out[(seqLen+1)/2 : (caps.Seq+1)/2])
	src = src[(seqLen+1)/2:]
	out = out[(caps.Seq+1)/2:]
	// Qualities.
	copy(out, src[:seqLen])
	zero(out[seqLen:caps.Seq])
	src = src[seqLen:]
	out = out[caps.Seq:]
	// Auxiliary data.
	copy(out, src[:auxLen])
	zero(out[auxLen:caps.Aux])
	return nil
}

// rawLens reads a fixed-stride record's variable-section lengths and
// checks them against the caps; every view of a raw record goes through
// it, so a corrupt length is an ErrCorrupt under any projection.
func rawLens(rec []byte, caps Caps) (nameLen, nCigar, seqLen, auxLen int, err error) {
	if len(rec) != caps.Stride() {
		return 0, 0, 0, 0, fmt.Errorf("%w: record of %d bytes, stride %d", ErrCorrupt, len(rec), caps.Stride())
	}
	nameLen = int(rec[8])
	nCigar = int(binary.LittleEndian.Uint16(rec[12:]))
	seqLen = int(int32(binary.LittleEndian.Uint32(rec[16:])))
	auxLen = int(int32(binary.LittleEndian.Uint32(rec[32:])))
	if nameLen > caps.QName || nCigar > caps.CigarOps ||
		seqLen < 0 || seqLen > caps.Seq ||
		auxLen < 0 || auxLen > caps.Aux {
		return 0, 0, 0, 0, fmt.Errorf("%w: lengths exceed caps", ErrCorrupt)
	}
	return nameLen, nCigar, seqLen, auxLen, nil
}

// unpadRecord reassembles a contiguous BAM record body from a
// fixed-stride BAMX record, appending to dst.
func unpadRecord(dst, rec []byte, caps Caps) ([]byte, error) {
	nameLen, nCigar, seqLen, auxLen, err := rawLens(rec, caps)
	if err != nil {
		return nil, err
	}
	dst = append(dst, rec[:32]...)
	off := prefixSize
	dst = append(dst, rec[off:off+nameLen]...)
	off += caps.QName
	dst = append(dst, rec[off:off+4*nCigar]...)
	off += 4 * caps.CigarOps
	dst = append(dst, rec[off:off+(seqLen+1)/2]...)
	off += (caps.Seq + 1) / 2
	dst = append(dst, rec[off:off+seqLen]...)
	off += caps.Seq
	dst = append(dst, rec[off:off+auxLen]...)
	return dst, nil
}

// Writer emits a BAMX file. The caps must be known up front — that is
// the price of the fixed layout, and why the paper's preprocessors are
// two-pass.
type Writer struct {
	w      io.Writer
	header *sam.Header
	caps   Caps
	rec    []byte // stride-sized scratch
	body   []byte // BAM-encoding scratch
	count  int64
	err    error
}

// NewWriter writes the BAMX header and returns a record writer.
func NewWriter(w io.Writer, h *sam.Header, caps Caps) (*Writer, error) {
	if caps.QName < 2 || caps.Seq < 1 {
		return nil, fmt.Errorf("bamx: degenerate caps %+v", caps)
	}
	hdr := encodeHeader(h, caps)
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	return &Writer{
		w:      w,
		header: h,
		caps:   caps,
		rec:    make([]byte, caps.Stride()),
	}, nil
}

func encodeHeader(h *sam.Header, caps Caps) []byte {
	text := h.String()
	hdr := make([]byte, 0, 32+len(text))
	hdr = append(hdr, Magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(caps.QName))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(caps.CigarOps))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(caps.Seq))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(caps.Aux))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(text)))
	hdr = append(hdr, text...)
	return hdr
}

// HeaderSize returns the encoded size of the BAMX header for h, i.e. the
// file offset where record data starts.
func HeaderSize(h *sam.Header) int64 {
	return int64(len(Magic)) + 20 + int64(len(h.String()))
}

// Write appends one alignment as a fixed-stride record.
func (w *Writer) Write(rec *sam.Record) error {
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

// WriteEncoded appends one record given its BAM-encoded body (without the
// block_size prefix). It lets preprocessors avoid a decode/re-encode
// round trip.
func (w *Writer) WriteEncoded(body []byte) error {
	if w.err != nil {
		return w.err
	}
	if err := padRecord(w.rec, body, w.caps); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(w.rec); err != nil {
		w.err = err
		return err
	}
	w.count++
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() int64 { return w.count }

// File provides random access to a BAMX file via an io.ReaderAt.
type File struct {
	r         io.ReaderAt
	header    *sam.Header
	caps      Caps
	dataStart int64
	count     int64
}

// Open validates the header of a BAMX file of the given total size and
// returns a random-access handle.
func Open(r io.ReaderAt, size int64) (*File, error) {
	fixed := make([]byte, len(Magic)+20)
	if _, err := r.ReadAt(fixed, 0); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotBAMX, err)
	}
	if string(fixed[:len(Magic)]) != string(Magic) {
		return nil, ErrNotBAMX
	}
	p := fixed[len(Magic):]
	caps := Caps{
		QName:    int(binary.LittleEndian.Uint32(p[0:])),
		CigarOps: int(binary.LittleEndian.Uint32(p[4:])),
		Seq:      int(binary.LittleEndian.Uint32(p[8:])),
		Aux:      int(binary.LittleEndian.Uint32(p[12:])),
	}
	textLen := int(binary.LittleEndian.Uint32(p[16:]))
	if textLen < 0 || caps.Stride() <= prefixSize {
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
	dataStart := int64(len(fixed) + textLen)
	dataLen := size - dataStart
	stride := int64(caps.Stride())
	if dataLen < 0 || dataLen%stride != 0 {
		return nil, fmt.Errorf("%w: %d data bytes is not a multiple of stride %d",
			ErrCorrupt, dataLen, stride)
	}
	return &File{r: r, header: h, caps: caps, dataStart: dataStart, count: dataLen / stride}, nil
}

// Header returns the embedded SAM header.
func (f *File) Header() *sam.Header { return f.header }

// Caps returns the file's field capacities.
func (f *File) Caps() Caps { return f.caps }

// NumRecords returns the record count (derived from the file size — the
// layout regularity makes an explicit count redundant).
func (f *File) NumRecords() int64 { return f.count }

// Stride returns the fixed record size in bytes.
func (f *File) Stride() int { return f.caps.Stride() }

// ReadRecord random-accesses record i into rec.
func (f *File) ReadRecord(i int64, rec *sam.Record) error {
	buf := make([]byte, f.caps.Stride())
	if err := f.ReadRaw(i, buf); err != nil {
		return err
	}
	_, err := f.DecodeInto(buf, nil, rec)
	return err
}

// ReadRaw reads the fixed-stride bytes of record i into buf, which must
// be Stride() bytes. Batch readers reuse one buffer across calls.
func (f *File) ReadRaw(i int64, buf []byte) error {
	if i < 0 || i >= f.count {
		return fmt.Errorf("bamx: record %d out of range [0, %d)", i, f.count)
	}
	if len(buf) != f.caps.Stride() {
		return fmt.Errorf("bamx: ReadRaw buffer %d bytes, want %d", len(buf), f.caps.Stride())
	}
	_, err := f.r.ReadAt(buf, f.dataStart+i*int64(f.caps.Stride()))
	return err
}

// AppendBody reassembles the contiguous BAM record body from one raw
// fixed-stride record, appending to dst — the zero-decode path for
// body-level tallies over BAMX shards. Callers reuse dst across records
// to keep the loop allocation-free.
func (f *File) AppendBody(dst, raw []byte) ([]byte, error) {
	return unpadRecord(dst, raw, f.caps)
}

// RawCigar validates one raw fixed-stride record as AppendBody does and
// returns its CIGAR operations in place: with the 32-byte fixed prefix
// at raw[:32] they are everything a coordinate/coverage tally reads, at
// constant offsets, with no reassembly.
func (f *File) RawCigar(raw []byte) ([]byte, error) {
	_, nCigar, _, _, err := rawLens(raw, f.caps)
	if err != nil {
		return nil, err
	}
	off := prefixSize + f.caps.QName
	return raw[off : off+4*nCigar], nil
}
