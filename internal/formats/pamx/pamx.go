// Package pamx implements PAMX, a columnar sibling of BAM/BAMX in the
// style of grailbio's PAM ("a faster, smaller alternative to BAM"):
// records are split into per-field streams — the fixed coordinate/flag
// prefix, read names, CIGARs, packed sequences, qualities and auxiliary
// tags — grouped into coordinate-sharded column groups, and each column
// stream is BGZF-compressed independently. A seekable footer indexes
// every group's columns, so a reader can project exactly the fields an
// analysis touches: flagstat over PAMX inflates the 36-byte coordinate
// column and skips the sequence/quality bulk it would otherwise pay to
// decompress and discard.
//
// The layout:
//
//	magic "PAMX\x01"
//	uint32 header-text length | SAM header text
//	column group 0: coord blob | qname blob | cigar blob | seq blob | qual blob | aux blob
//	column group 1: ...
//	footer: per-group {refID, beg, end, records, per-column {off, clen, ulen}}
//	uint64 footer length | trailer magic "PAMXIDX1"
//
// Each blob is an independent BGZF stream (empty columns are omitted
// entirely). The Writer deflates a whole group at once — every block of
// all six columns as one batch of jobs, on the process-wide
// bgzf.SharedPool by default — while the next group fills, and the file
// bytes are bit-identical at any codec worker count. A group never spans
// a reference change, which is what lets the shard provider hand whole
// groups to region-parallel analyses with the exactly-once ownership
// contract intact.
package pamx

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic identifies a PAMX file.
var Magic = []byte{'P', 'A', 'M', 'X', 1}

// TrailerMagic closes a PAMX file after the footer-length word; Open
// seeks here first to find the footer without scanning the data.
var TrailerMagic = []byte{'P', 'A', 'M', 'X', 'I', 'D', 'X', '1'}

// Errors reported by the codec.
var (
	ErrNotPAMX = errors.New("pamx: not a PAMX file")
	ErrCorrupt = errors.New("pamx: corrupt file")
)

// Fields selects the columns a reader inflates. The coordinate column is
// always loaded — it carries the per-record field lengths every other
// column is delimited by — so any projection implicitly includes it.
type Fields uint32

const (
	// FieldCoord is the fixed 32-byte BAM record prefix (refID, pos,
	// mapq, bin, flag, mate info, tlen) plus the per-record auxiliary
	// length. It is the whole input of counting analyses like flagstat.
	FieldCoord Fields = 1 << iota
	// FieldQName projects the NUL-terminated read names.
	FieldQName
	// FieldCigar projects the binary CIGAR operations.
	FieldCigar
	// FieldSeq projects the 4-bit packed sequences.
	FieldSeq
	// FieldQual projects the raw quality bytes.
	FieldQual
	// FieldAux projects the encoded auxiliary tags.
	FieldAux
)

// FieldFlag aliases FieldCoord: the FLAG word lives in the fixed prefix,
// so projecting flags means projecting the coordinate column.
const FieldFlag = FieldCoord

// FieldAll projects every column — the full-record view conversions use.
const FieldAll = FieldCoord | FieldQName | FieldCigar | FieldSeq | FieldQual | FieldAux

// Has reports whether f includes every bit of sub.
func (f Fields) Has(sub Fields) bool { return f&sub == sub }

// String renders the projection for logs and spans.
func (f Fields) String() string {
	if f == 0 {
		return "none"
	}
	names := []struct {
		bit  Fields
		name string
	}{
		{FieldCoord, "coord"}, {FieldQName, "qname"}, {FieldCigar, "cigar"},
		{FieldSeq, "seq"}, {FieldQual, "qual"}, {FieldAux, "aux"},
	}
	out := ""
	for _, n := range names {
		if f&n.bit == 0 {
			continue
		}
		if out != "" {
			out += "|"
		}
		out += n.name
	}
	return out
}

// Column indices into a group's per-column entry table, in file order.
const (
	colCoord = iota
	colQName
	colCigar
	colSeq
	colQual
	colAux
	numColumns
)

// columnField maps a column index to its projection bit.
var columnField = [numColumns]Fields{
	FieldCoord, FieldQName, FieldCigar, FieldSeq, FieldQual, FieldAux,
}

// coordStride is the per-record size of the coordinate column: the
// 32-byte fixed BAM prefix plus a uint32 recording the auxiliary-data
// length (the one variable-section length the prefix does not carry).
const coordStride = 36

// Options tunes a Writer.
type Options struct {
	// CodecWorkers drives the BGZF block jobs of a group flush: 0 runs
	// them on the process-wide bgzf.SharedPool, 1 inline on the caller
	// with no goroutine at all (the sequential baseline), and n > 1 on up
	// to n goroutines at a time. All three emit bit-identical bytes. The
	// converters apply the same count to the BAM inflate side.
	CodecWorkers int
	// GroupBytes caps the uncompressed bytes buffered into one column
	// group before it is cut (summed across columns). ≤ 0 picks
	// DefaultGroupBytes. Groups also cut on every reference change, so a
	// group never mixes references.
	GroupBytes int64
	// GroupRecords, when > 0, additionally caps the records per group —
	// the knob tests and benchmarks use to force exact group counts.
	GroupRecords int
}

// DefaultGroupBytes is the group target when Options leaves it unset:
// large enough to amortise per-column stream overhead and keep the
// footer tiny, small enough that many groups exist to parallelise over.
const DefaultGroupBytes = 4 << 20

// bodyLens extracts the variable-section lengths from a BAM record body
// and validates their sum against the body size. auxLen is negative when
// the declared lengths exceed the body.
func bodyLens(body []byte) (nameLen, nCigar, seqLen, auxLen int) {
	nameLen = int(body[8])
	nCigar = int(binary.LittleEndian.Uint16(body[12:]))
	seqLen = int(int32(binary.LittleEndian.Uint32(body[16:])))
	if seqLen < 0 {
		return nameLen, nCigar, seqLen, -1
	}
	auxLen = len(body) - 32 - nameLen - 4*nCigar - (seqLen+1)/2 - seqLen
	return nameLen, nCigar, seqLen, auxLen
}

// colEntry locates one column blob of one group in the file.
type colEntry struct {
	Off  int64 // absolute file offset of the BGZF blob; 0 when empty
	CLen int64 // compressed blob length; 0 when the column is empty
	ULen int64 // uncompressed column length
}

// GroupInfo describes one column group: its reference (or -1 for
// unmapped records), the zero-based base span its records start in, the
// record count, and the per-column blob locations.
type GroupInfo struct {
	RefID   int32
	Beg     int64 // zero-based start of the first record
	End     int64 // zero-based exclusive end over all records
	Records int64
	Cols    [numColumns]colEntry
}

// CompressedBytes sums the compressed column blob sizes of the group
// under the given projection (the coordinate column always counts).
func (g *GroupInfo) CompressedBytes(fields Fields) int64 {
	fields |= FieldCoord
	var n int64
	for c := 0; c < numColumns; c++ {
		if fields.Has(columnField[c]) {
			n += g.Cols[c].CLen
		}
	}
	return n
}

func (g *GroupInfo) validate(i int) error {
	if g.RefID < -1 {
		return fmt.Errorf("%w: group %d refID %d", ErrCorrupt, i, g.RefID)
	}
	if g.Records <= 0 {
		return fmt.Errorf("%w: group %d declares %d records", ErrCorrupt, i, g.Records)
	}
	if g.Cols[colCoord].ULen != g.Records*coordStride {
		return fmt.Errorf("%w: group %d coord column %d bytes for %d records",
			ErrCorrupt, i, g.Cols[colCoord].ULen, g.Records)
	}
	for c := 0; c < numColumns; c++ {
		e := g.Cols[c]
		if e.Off < 0 || e.CLen < 0 || e.ULen < 0 {
			return fmt.Errorf("%w: group %d column %d negative geometry", ErrCorrupt, i, c)
		}
		if (e.ULen == 0) != (e.CLen == 0) {
			return fmt.Errorf("%w: group %d column %d empty/non-empty mismatch", ErrCorrupt, i, c)
		}
	}
	return nil
}
