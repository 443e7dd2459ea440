package pamx

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"parseq/internal/bam"
	"parseq/internal/bgzf"
	"parseq/internal/obs"
	"parseq/internal/sam"
)

// File provides random access to a PAMX file through its footer index.
// The io.ReaderAt is position-less, so one File serves concurrent group
// readers — the property the shard provider builds on.
type File struct {
	r         io.ReaderAt
	header    *sam.Header
	groups    []GroupInfo
	dataStart int64
}

// Open validates the prologue and footer of a PAMX file of the given
// total size and returns a random-access handle. Both index layers are
// treated as untrusted: the footer must decode cleanly and every column
// blob must lie inside the data section.
func Open(r io.ReaderAt, size int64) (*File, error) {
	fixed := make([]byte, len(Magic)+4)
	if size < int64(len(fixed)) {
		return nil, ErrNotPAMX
	}
	if _, err := r.ReadAt(fixed, 0); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotPAMX, err)
	}
	if !bytes.Equal(fixed[:len(Magic)], Magic) {
		return nil, ErrNotPAMX
	}
	textLen := int64(binary.LittleEndian.Uint32(fixed[len(Magic):]))
	dataStart := int64(len(fixed)) + textLen
	if textLen < 0 || dataStart+16 > size {
		return nil, fmt.Errorf("%w: header text of %d bytes in a %d-byte file", ErrCorrupt, textLen, size)
	}
	text := make([]byte, textLen)
	if _, err := r.ReadAt(text, int64(len(fixed))); err != nil {
		return nil, fmt.Errorf("%w: header text: %v", ErrCorrupt, err)
	}
	h, err := sam.ParseHeader(string(text))
	if err != nil {
		return nil, err
	}

	tail := make([]byte, 16)
	if _, err := r.ReadAt(tail, size-16); err != nil {
		return nil, fmt.Errorf("%w: trailer: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(tail[8:], TrailerMagic) {
		return nil, fmt.Errorf("%w: bad trailer magic", ErrCorrupt)
	}
	footLen := int64(binary.LittleEndian.Uint64(tail))
	if footLen < 4 || footLen > maxFooterBytes || dataStart+footLen+16 > size {
		return nil, fmt.Errorf("%w: footer of %d bytes", ErrCorrupt, footLen)
	}
	footStart := size - 16 - footLen
	foot := make([]byte, footLen)
	if _, err := r.ReadAt(foot, footStart); err != nil {
		return nil, fmt.Errorf("%w: footer: %v", ErrCorrupt, err)
	}
	groups, err := DecodeFooter(foot)
	if err != nil {
		return nil, err
	}
	if err := boundsCheck(groups, dataStart, footStart); err != nil {
		return nil, err
	}
	return &File{r: r, header: h, groups: groups, dataStart: dataStart}, nil
}

// PathFile is a File bound to the *os.File it was opened from.
type PathFile struct {
	*File
	osf *os.File
}

// OpenPath opens the PAMX file at path; Close releases the handle.
func OpenPath(path string) (*PathFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	pf, err := Open(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	return &PathFile{File: pf, osf: f}, nil
}

// Close releases the underlying file handle.
func (p *PathFile) Close() error { return p.osf.Close() }

// Header returns the embedded SAM header.
func (f *File) Header() *sam.Header { return f.header }

// NumGroups returns the column group count.
func (f *File) NumGroups() int { return len(f.groups) }

// Group returns group i's descriptor.
func (f *File) Group(i int) GroupInfo { return f.groups[i] }

// NumRecords sums the record counts of all groups.
func (f *File) NumRecords() int64 {
	var n int64
	for i := range f.groups {
		n += f.groups[i].Records
	}
	return n
}

// readColumn inflates one column blob into a fresh exact-size buffer.
func (f *File) readColumn(e colEntry) ([]byte, error) {
	if e.ULen == 0 {
		return nil, nil
	}
	raw := make([]byte, e.CLen)
	if _, err := f.r.ReadAt(raw, e.Off); err != nil {
		return nil, fmt.Errorf("%w: column blob: %v", ErrCorrupt, err)
	}
	out := make([]byte, e.ULen)
	zr := bgzf.NewReader(bytes.NewReader(raw))
	if _, err := io.ReadFull(zr, out); err != nil {
		return nil, fmt.Errorf("%w: column inflate: %w", ErrCorrupt, err)
	}
	// The blob ends with its ULen-th byte, on the EOF marker.
	if n, err := zr.Read(make([]byte, 1)); err != io.EOF {
		if n > 0 {
			err = fmt.Errorf("column longer than its %d bytes", e.ULen)
		}
		return nil, fmt.Errorf("%w: column inflate: %w", ErrCorrupt, err)
	}
	return out, nil
}

// GroupReader iterates one column group's records under a field
// projection, reassembling each record as a valid BAM body view:
// projected fields carry their stored bytes; skipped variable fields are
// elided from the view with the prefix patched to match (read name "\0",
// zero CIGAR ops, zero-length sequence), and a skipped quality column
// under a projected sequence renders as the 0xff missing-qualities fill.
// With only FieldCoord projected the view is the 33-byte minimal body —
// the zero-decode span counting analyses tally from.
type GroupReader struct {
	f      *File
	g      GroupInfo
	fields Fields
	cols   [numColumns][]byte
	loaded [numColumns]bool
	offs   [numColumns]int
	i      int64
	buf    []byte
}

// NewGroupReader opens group i, inflating exactly the projected columns
// (the coordinate column is always loaded — it delimits the others).
// Inflated and skipped compressed bytes feed the pamx.{bytes_inflated,
// bytes_skipped} counters, the measured half of the column-skipping win.
func (f *File) NewGroupReader(i int, fields Fields) (*GroupReader, error) {
	if i < 0 || i >= len(f.groups) {
		return nil, fmt.Errorf("pamx: group %d out of range [0, %d)", i, len(f.groups))
	}
	fields |= FieldCoord
	g := f.groups[i]
	gr := &GroupReader{f: f, g: g, fields: fields}
	var inflated, skipped int64
	for c := 0; c < numColumns; c++ {
		if !fields.Has(columnField[c]) {
			skipped += g.Cols[c].ULen
			continue
		}
		col, err := f.readColumn(g.Cols[c])
		if err != nil {
			return nil, err
		}
		gr.cols[c], gr.loaded[c] = col, true
		inflated += g.Cols[c].ULen
	}
	if reg := obs.Default(); reg != nil {
		reg.Counter("pamx.bytes_inflated").Add(inflated)
		reg.Counter("pamx.bytes_skipped").Add(skipped)
		reg.Gauge("pamx.fields").Set(int64(fields))
	}
	return gr, nil
}

// Fields returns the effective projection (always including FieldCoord).
func (r *GroupReader) Fields() Fields { return r.fields }

// take consumes n bytes from a loaded column's cursor.
func (r *GroupReader) take(c, n int) ([]byte, error) {
	if n < 0 || r.offs[c]+n > len(r.cols[c]) {
		return nil, fmt.Errorf("%w: column %d exhausted at record %d", ErrCorrupt, c, r.i)
	}
	b := r.cols[c][r.offs[c] : r.offs[c]+n]
	r.offs[c] += n
	return b, nil
}

// appendN appends n copies of b.
func appendN(dst []byte, b byte, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, b)
	}
	return dst
}

// NextBody returns the next record's reassembled body view. The slice
// aliases an internal buffer and is valid only until the next call. It
// returns io.EOF when the group is exhausted.
func (r *GroupReader) NextBody() ([]byte, error) {
	if r.i >= r.g.Records {
		return nil, io.EOF
	}
	coord := r.cols[colCoord][r.i*coordStride : r.i*coordStride+coordStride]
	nameLen := int(coord[8])
	nCigar := int(binary.LittleEndian.Uint16(coord[12:]))
	seqLen := int(int32(binary.LittleEndian.Uint32(coord[16:])))
	auxLen := int(int32(binary.LittleEndian.Uint32(coord[32:])))
	if nameLen < 1 || seqLen < 0 || auxLen < 0 {
		return nil, fmt.Errorf("%w: record %d declares name %d, seq %d, aux %d",
			ErrCorrupt, r.i, nameLen, seqLen, auxLen)
	}

	buf := append(r.buf[:0], coord[:32]...)
	if r.loaded[colQName] {
		b, err := r.take(colQName, nameLen)
		if err != nil {
			return nil, err
		}
		buf = append(buf, b...)
	} else {
		buf[8] = 1
		buf = append(buf, 0)
	}
	if r.loaded[colCigar] {
		b, err := r.take(colCigar, 4*nCigar)
		if err != nil {
			return nil, err
		}
		buf = append(buf, b...)
	} else {
		binary.LittleEndian.PutUint16(buf[12:], 0)
	}
	if r.loaded[colSeq] || r.loaded[colQual] {
		if r.loaded[colSeq] {
			b, err := r.take(colSeq, (seqLen+1)/2)
			if err != nil {
				return nil, err
			}
			buf = append(buf, b...)
		} else {
			buf = appendN(buf, 0, (seqLen+1)/2)
		}
		if r.loaded[colQual] {
			b, err := r.take(colQual, seqLen)
			if err != nil {
				return nil, err
			}
			buf = append(buf, b...)
		} else {
			buf = appendN(buf, 0xff, seqLen)
		}
	} else {
		binary.LittleEndian.PutUint32(buf[16:], 0)
	}
	if r.loaded[colAux] {
		b, err := r.take(colAux, auxLen)
		if err != nil {
			return nil, err
		}
		buf = append(buf, b...)
	}
	r.i++
	r.buf = buf
	return buf, nil
}

// ReadInto decodes the next record view into rec. Skipped fields decode
// to their placeholder values (QName "*", no CIGAR, Seq/Qual "*", no
// tags) — a partial view, not the stored record.
func (r *GroupReader) ReadInto(rec *sam.Record) error {
	body, err := r.NextBody()
	if err != nil {
		return err
	}
	return bam.DecodeRecord(body, rec, r.f.header)
}

// Close releases the group's column buffers. The File stays open.
func (r *GroupReader) Close() error {
	for c := range r.cols {
		r.cols[c] = nil
	}
	r.buf = nil
	return nil
}
