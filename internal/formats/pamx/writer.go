package pamx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"parseq/internal/bam"
	"parseq/internal/bgzf"
	"parseq/internal/sam"
)

// Writer emits a PAMX file as a two-stage pipeline. The producer
// (Write/WriteBody) splits records into the per-column buffers of the
// open group until it cuts (size cap, record cap, or reference change);
// the flush stage then takes the whole group: it slices all six columns
// into ≤ bgzf.MaxPayload payloads, deflates them in one
// bgzf.DeflateBlocks batch at Options.CodecWorkers, and appends the
// members — plus each column's EOF marker — in column/block order,
// while the producer fills the next group on a second buffer set. At most one group fills while one
// compresses, so in-flight memory is bounded by 2 × GroupBytes of column
// bytes plus one group's compressed blocks. Close flushes the last
// group, joins the flush stage and writes the footer index.
//
// Like the BGZF writers a Writer serves one producing goroutine. An
// error in the flush stage (deflate or the underlying io.Writer) is
// sticky: it surfaces from a later WriteBody — the next group cut at the
// latest — or from Close. A Writer that was used must be Closed, also
// after an error, so the flush stage is joined before the caller touches
// the underlying writer again.
type Writer struct {
	w      io.Writer
	header *sam.Header
	opts   Options

	// Producer side.
	fill    *group // the open group
	open    bool   // fill holds at least one record
	count   int64
	cut     int    // groups handed to the flush stage
	scratch []byte // Write's record-encoding buffer
	err     error  // sticky; includes a joined flush error

	// Flush stage. done is non-nil while a flush goroutine runs; the
	// spare buffer set and the fields below it belong to that goroutine
	// until done closes and to the producer otherwise, so the channel is
	// their only synchronisation.
	done     chan struct{}
	spare    *group // the buffer set not being filled
	off      int64  // absolute file offset of the next byte written
	groups   []GroupInfo
	payloads [][]byte // a flush's block payloads, aliasing the column buffers
	members  [][]byte // their deflated members; the buffers are reused
	ferr     error
}

// group is one buffer set: the column bytes of a group and its footer
// entry in the making.
type group struct {
	info  GroupInfo
	cols  [numColumns][]byte
	bytes int64 // bytes buffered across cols
}

func (g *group) reset() {
	g.info = GroupInfo{}
	g.bytes = 0
	for c := range g.cols {
		g.cols[c] = g.cols[c][:0]
	}
}

var errClosed = errors.New("pamx: writer closed")

// encodeHeader renders the file prologue: magic, header-text length and
// the SAM header text.
func encodeHeader(h *sam.Header) []byte {
	text := h.String()
	hdr := make([]byte, 0, len(Magic)+4+len(text))
	hdr = append(hdr, Magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(text)))
	return append(hdr, text...)
}

// NewWriter writes the PAMX prologue and returns a record writer.
func NewWriter(w io.Writer, h *sam.Header, opts Options) (*Writer, error) {
	if opts.GroupBytes <= 0 {
		opts.GroupBytes = DefaultGroupBytes
	}
	hdr := encodeHeader(h)
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	return &Writer{w: w, header: h, opts: opts, off: int64(len(hdr)), fill: &group{}, spare: &group{}}, nil
}

// Write encodes one alignment and appends it.
func (w *Writer) Write(rec *sam.Record) error {
	if w.err != nil {
		return w.err
	}
	var err error
	if w.scratch, err = bam.EncodeRecord(w.scratch[:0], rec, w.header); err != nil {
		return w.fail(err)
	}
	return w.WriteBody(w.scratch[4:])
}

// WriteBody appends one record given its BAM-encoded body (without the
// block_size prefix) — the zero-decode handoff conversions use. The body
// is split across the column buffers; nothing aliases it after return.
func (w *Writer) WriteBody(body []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(body) < 32 {
		return w.fail(fmt.Errorf("%w: %d-byte record body", ErrCorrupt, len(body)))
	}
	nameLen, nCigar, seqLen, auxLen := bodyLens(body)
	if nameLen < 1 || auxLen < 0 {
		return w.fail(fmt.Errorf("%w: inconsistent record lengths (name %d, cigar %d, seq %d, aux %d)",
			ErrCorrupt, nameLen, nCigar, seqLen, auxLen))
	}
	refID, beg, end := bam.BodySpan(body)

	if w.open && w.shouldCut(refID, len(body)) {
		if err := w.cutGroup(); err != nil {
			return err
		}
	}
	g := w.fill
	if !w.open {
		g.info.RefID = refID
		w.open = true
		if refID >= 0 {
			g.info.Beg, g.info.End = int64(beg), int64(end)
		}
	} else if refID >= 0 {
		if int64(beg) < g.info.Beg {
			g.info.Beg = int64(beg)
		}
		if int64(end) > g.info.End {
			g.info.End = int64(end)
		}
	}

	g.cols[colCoord] = append(g.cols[colCoord], body[:32]...)
	g.cols[colCoord] = binary.LittleEndian.AppendUint32(g.cols[colCoord], uint32(auxLen))
	rest := body[32:]
	g.cols[colQName] = append(g.cols[colQName], rest[:nameLen]...)
	rest = rest[nameLen:]
	g.cols[colCigar] = append(g.cols[colCigar], rest[:4*nCigar]...)
	rest = rest[4*nCigar:]
	g.cols[colSeq] = append(g.cols[colSeq], rest[:(seqLen+1)/2]...)
	rest = rest[(seqLen+1)/2:]
	g.cols[colQual] = append(g.cols[colQual], rest[:seqLen]...)
	g.cols[colAux] = append(g.cols[colAux], rest[seqLen:]...)

	// +4: the coordinate column stores the aux length alongside the prefix.
	g.bytes += int64(len(body)) + 4
	g.info.Records++
	w.count++
	return nil
}

// shouldCut reports whether the open group must close before a record
// of the given reference and body size joins it.
func (w *Writer) shouldCut(refID int32, bodyLen int) bool {
	g := w.fill
	if refID != g.info.RefID {
		return true
	}
	if w.opts.GroupRecords > 0 && g.info.Records >= int64(w.opts.GroupRecords) {
		return true
	}
	return g.bytes+int64(bodyLen)+4 > w.opts.GroupBytes
}

// cutGroup hands the open group to the flush stage — after joining the
// previous flush, which also frees the other buffer set — and goes on
// filling that one. With CodecWorkers 1 the flush runs right here, on
// the producer: the sequential baseline.
func (w *Writer) cutGroup() error {
	if err := w.join(); err != nil {
		return err
	}
	g := w.fill
	w.fill, w.spare = w.spare, g
	w.fill.reset()
	w.open = false
	w.cut++
	if w.opts.CodecWorkers == 1 {
		w.flush(g)
		return w.join()
	}
	done := make(chan struct{})
	w.done = done
	go func() {
		defer close(done)
		w.flush(g)
	}()
	return nil
}

// join waits for the in-flight flush, if any, and folds its error into
// the sticky one.
func (w *Writer) join() error {
	if w.done != nil {
		<-w.done
		w.done = nil
	}
	if w.err == nil {
		w.err = w.ferr
	}
	return w.err
}

// flush is the flush stage: deflate every block of every column of g,
// then append the members and EOF markers in column/block order and
// record the group's footer entry. The first failure in that order
// lands in w.ferr; nothing is written after it.
func (w *Writer) flush(g *group) {
	payloads := w.payloads[:0]
	var blocks [numColumns]int // payloads per column
	for c, col := range g.cols {
		for ; len(col) > 0; blocks[c]++ {
			n := min(len(col), bgzf.MaxPayload)
			payloads = append(payloads, col[:n])
			col = col[n:]
		}
	}
	w.payloads = payloads
	for len(w.members) < len(payloads) {
		w.members = append(w.members, nil)
	}
	members := w.members[:len(payloads)]
	if w.ferr = bgzf.DeflateBlocks(members, payloads, w.opts.CodecWorkers); w.ferr != nil {
		return
	}

	for c, col := range g.cols {
		if len(col) == 0 {
			continue
		}
		start := w.off
		for _, m := range members[:blocks[c]] {
			if !w.emit(m) {
				return
			}
		}
		members = members[blocks[c]:]
		if !w.emit(bgzf.EOFMarker()) {
			return
		}
		g.info.Cols[c] = colEntry{Off: start, CLen: w.off - start, ULen: int64(len(col))}
	}
	w.groups = append(w.groups, g.info)
}

// emit appends p to the file on behalf of the flush stage.
func (w *Writer) emit(p []byte) bool {
	if _, err := w.w.Write(p); err != nil {
		w.ferr = err
		return false
	}
	w.off += int64(len(p))
	return true
}

func (w *Writer) fail(err error) error {
	w.err = err
	return err
}

// Count returns the records accepted so far.
func (w *Writer) Count() int64 { return w.count }

// Groups returns the column groups cut so far, counted when the producer
// hands them to the flush stage (the open group, if any, is not counted
// until Close).
func (w *Writer) Groups() int { return w.cut }

// Close flushes the open group, joins the flush stage — always, also
// after an error — and writes the footer index and trailer. It does not
// close the underlying writer.
func (w *Writer) Close() error {
	if w.err == nil && w.open {
		_ = w.cutGroup() // the join below reports its error
	}
	if err := w.join(); err != nil {
		return err
	}
	footer := EncodeFooter(w.groups)
	footer = binary.LittleEndian.AppendUint64(footer, uint64(len(footer)))
	footer = append(footer, TrailerMagic...)
	if _, err := w.w.Write(footer); err != nil {
		return w.fail(err)
	}
	w.err = errClosed
	return nil
}
