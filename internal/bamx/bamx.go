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

// Observe grows caps to accommodate the BAM-encoded record body. A body
// shorter than its fixed section or than the lengths it declares is
// ErrCorrupt, and leaves caps as they were.
func (c *Caps) Observe(body []byte) error {
	nameLen, nCigar, seqLen, auxLen, err := bodyLens(body)
	if err != nil {
		return err
	}
	c.QName = max(c.QName, nameLen)
	c.CigarOps = max(c.CigarOps, nCigar)
	c.Seq = max(c.Seq, seqLen)
	c.Aux = max(c.Aux, auxLen)
	return nil
}

// Stride returns the fixed record size the caps imply.
func (c Caps) Stride() int {
	return prefixSize + c.QName + 4*c.CigarOps + (c.Seq+1)/2 + c.Seq + c.Aux
}

// prefixSize is the fixed per-record prefix: the 32-byte BAM fixed
// section plus an int32 recording the real auxiliary-data length (the
// one length the BAM prefix does not carry).
const prefixSize = 36

// bodyLens extracts the variable-section lengths from a BAM record body,
// refusing as ErrCorrupt a body shorter than the 32-byte fixed section
// or than the lengths it declares.
func bodyLens(body []byte) (nameLen, nCigar, seqLen, auxLen int, err error) {
	if len(body) < 32 {
		return 0, 0, 0, 0, fmt.Errorf("%w: %d-byte BAM record body", ErrCorrupt, len(body))
	}
	nameLen = int(body[8])
	nCigar = int(binary.LittleEndian.Uint16(body[12:]))
	seqLen = int(int32(binary.LittleEndian.Uint32(body[16:])))
	auxLen = len(body) - 32 - nameLen - 4*nCigar - (seqLen+1)/2 - seqLen
	if seqLen < 0 || auxLen < 0 {
		return 0, 0, 0, 0, fmt.Errorf("%w: inconsistent BAM record lengths", ErrCorrupt)
	}
	return nameLen, nCigar, seqLen, auxLen, nil
}

// padRecord lays the BAM record body out into the fixed-stride BAMX form
// in dst, which must be Stride() bytes and zeroed or fully overwritten.
func padRecord(dst, body []byte, caps Caps) error {
	nameLen, nCigar, seqLen, auxLen, err := bodyLens(body)
	if err != nil {
		return err
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
	w     io.Writer
	caps  Caps
	rec   []byte // stride-sized scratch
	count int64
	err   error
}

// NewWriter writes the BAMX header and returns a record writer.
func NewWriter(w io.Writer, h *sam.Header, caps Caps) (*Writer, error) {
	if caps.QName < 2 || caps.Seq < 1 {
		return nil, fmt.Errorf("bamx: degenerate caps %+v", caps)
	}
	hdr := encodeHeader(Magic, h, caps)
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	return &Writer{w: w, caps: caps, rec: make([]byte, caps.Stride())}, nil
}

// encodeHeader lays out the prologue both containers open with: the
// magic, the caps, the container's own words (BAMZ: its member payload),
// then the SAM header text behind its length.
func encodeHeader(magic []byte, h *sam.Header, caps Caps, words ...uint32) []byte {
	text := h.String()
	hdr := append(make([]byte, 0, len(magic)+4*(5+len(words))+len(text)), magic...)
	words = append([]uint32{uint32(caps.QName), uint32(caps.CigarOps), uint32(caps.Seq), uint32(caps.Aux)}, words...)
	for _, v := range append(words, uint32(len(text))) {
		hdr = binary.LittleEndian.AppendUint32(hdr, v)
	}
	return append(hdr, text...)
}

// prologue is an encodeHeader prologue read back from a file.
type prologue struct {
	header *sam.Header
	caps   Caps
	words  []uint32
	size   int64 // encoded bytes: where the data starts
}

// readPrologue reads and checks the prologue of a file of the given size
// that opens with magic and carries `words` container words.
func readPrologue(r io.ReaderAt, size int64, magic []byte, words int) (*prologue, error) {
	fixed := make([]byte, len(magic)+4*(5+words))
	if _, err := r.ReadAt(fixed, 0); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotBAMX, err)
	}
	if string(fixed[:len(magic)]) != string(magic) {
		return nil, ErrNotBAMX
	}
	w := make([]uint32, 5+words)
	for i := range w {
		w[i] = binary.LittleEndian.Uint32(fixed[len(magic)+4*i:])
	}
	p := &prologue{
		caps:  Caps{QName: int(w[0]), CigarOps: int(w[1]), Seq: int(w[2]), Aux: int(w[3])},
		words: w[4 : 4+words],
		size:  int64(len(fixed)) + int64(w[4+words]),
	}
	if p.caps.Stride() <= prefixSize || p.size > size {
		return nil, ErrCorrupt
	}
	text := make([]byte, w[4+words])
	if _, err := r.ReadAt(text, int64(len(fixed))); err != nil {
		return nil, fmt.Errorf("%w: header text: %v", ErrCorrupt, err)
	}
	var err error
	p.header, err = sam.ParseHeader(string(text))
	return p, err
}

// HeaderSize returns the encoded size of the BAMX header for h, i.e. the
// file offset where record data starts.
func HeaderSize(h *sam.Header) int64 {
	return int64(len(encodeHeader(Magic, h, Caps{})))
}

// WriteEncoded appends one record given its BAM-encoded body (without the
// block_size prefix).
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
	p, err := readPrologue(r, size, Magic, 0)
	if err != nil {
		return nil, err
	}
	dataLen := size - p.size
	stride := int64(p.caps.Stride())
	if dataLen%stride != 0 {
		return nil, fmt.Errorf("%w: %d data bytes is not a multiple of stride %d",
			ErrCorrupt, dataLen, stride)
	}
	return &File{r: r, header: p.header, caps: p.caps, dataStart: p.size, count: dataLen / stride}, nil
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

// UnpadBody reassembles the contiguous BAM record body from one raw
// fixed-stride record, appending to dst — the zero-decode path for
// body-level tallies over BAMX shards. Callers reuse dst across records
// to keep the loop allocation-free.
func (f *File) UnpadBody(dst, raw []byte) ([]byte, error) {
	return unpadRecord(dst, raw, f.caps)
}

// RawCigar validates one raw fixed-stride record as UnpadBody does and
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
