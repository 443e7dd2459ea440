package bam

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"parseq/internal/kern"
	"parseq/internal/sam"
)

// Body is a validated, zero-copy view of one record body (the bytes
// after block_size): the fixed fields decoded, the variable sections
// as sub-slices of the body. Parse holds every check a record
// decode makes, so a view exists exactly when DecodeRecord succeeds,
// and a text encoder can render straight from it.
type Body struct {
	RefID, Pos         int32 // 0-based; -1 when unavailable
	NextRefID, NextPos int32
	TLen               int32
	MapQ               uint8
	Flag               sam.Flag
	Name               []byte // read name without its NUL; empty renders "*"
	Cigar              []byte // n_cigar_op little-endian uint32 ops
	Seq                []byte // (l_seq+1)/2 bytes of 4-bit codes
	Qual               []byte // l_seq raw Phred scores; 0xff first when absent
	aux                []byte // the typed tags, each checked by Parse
}

// maxPos bounds POS and PNEXT, so the 1-based text form fits an int32.
const maxPos = math.MaxInt32 - 1

// Parse checks body against the record layout and a header of nRefs
// references, and points b at it; on an error b is not a view. A
// reference ID outside [-1, nRefs) or a position outside [-1, 2³¹-1) is
// an ErrInvalidRecord, like a short section or a malformed tag.
func (b *Body) Parse(body []byte, nRefs int) error {
	const fixed = 32
	if len(body) < fixed {
		return fmt.Errorf("%w: %d-byte body", ErrInvalidRecord, len(body))
	}
	b.RefID = int32(binary.LittleEndian.Uint32(body[0:]))
	b.Pos = int32(binary.LittleEndian.Uint32(body[4:]))
	b.MapQ = body[9]
	b.Flag = sam.Flag(binary.LittleEndian.Uint16(body[14:]))
	b.NextRefID = int32(binary.LittleEndian.Uint32(body[20:]))
	b.NextPos = int32(binary.LittleEndian.Uint32(body[24:]))
	b.TLen = int32(binary.LittleEndian.Uint32(body[28:]))
	// bin at body[10:12] is derivable; skipped on decode.
	nameLen := int(body[8])
	nCigar := int(binary.LittleEndian.Uint16(body[12:]))
	seqLen := int(int32(binary.LittleEndian.Uint32(body[16:])))
	if seqLen < 0 || nameLen < 1 {
		return fmt.Errorf("%w: negative lengths", ErrInvalidRecord)
	}
	need := fixed + nameLen + nCigar*4 + (seqLen+1)/2 + seqLen
	if len(body) < need {
		return fmt.Errorf("%w: body %d bytes, need %d", ErrInvalidRecord, len(body), need)
	}
	for _, id := range [2]int32{b.RefID, b.NextRefID} {
		if id < -1 || int(id) >= nRefs {
			return fmt.Errorf("%w: reference ID %d outside [-1, %d)", ErrInvalidRecord, id, nRefs)
		}
	}
	for _, p := range [2]int32{b.Pos, b.NextPos} {
		if p < -1 || p > maxPos {
			return fmt.Errorf("%w: position %d outside [-1, %d]", ErrInvalidRecord, p, maxPos)
		}
	}
	off := fixed
	if body[off+nameLen-1] != 0 {
		return fmt.Errorf("%w: read name not NUL-terminated", ErrInvalidRecord)
	}
	b.Name = body[off : off+nameLen-1]
	off += nameLen
	b.Cigar = body[off : off+nCigar*4]
	off += nCigar * 4
	b.Seq = body[off : off+(seqLen+1)/2]
	off += (seqLen + 1) / 2
	b.Qual = body[off : off+seqLen]
	b.aux = body[off+seqLen:]
	for aux := b.aux; len(aux) > 0; {
		n, err := tagSize(aux)
		if err != nil {
			return err
		}
		aux = aux[n:]
	}
	return nil
}

// op returns CIGAR operation i.
func (b *Body) op(i int) sam.CigarOp {
	return sam.CigarOp(binary.LittleEndian.Uint32(b.Cigar[4*i:]))
}

// End is sam.Record.End on the view: the 1-based inclusive rightmost
// reference position, or POS when the CIGAR consumes no reference.
func (b *Body) End() int32 {
	n := 0
	for i := 0; i < len(b.Cigar)/4; i++ {
		if op := b.op(i); op.Type().ConsumesReference() {
			n += op.Len()
		}
	}
	if n == 0 {
		return b.Pos + 1
	}
	return b.Pos + int32(n)
}

// AppendCigar appends the CIGAR's SAM text, "*" when it has no operations.
func (b *Body) AppendCigar(dst []byte) []byte {
	if len(b.Cigar) == 0 {
		return append(dst, '*')
	}
	for i := 0; i < len(b.Cigar)/4; i++ {
		op := b.op(i)
		dst = strconv.AppendUint(dst, uint64(op.Len()), 10)
		dst = append(dst, op.Type().Char())
	}
	return dst
}

// AppendTags appends every tag as SAM text, each behind a tab.
func (b *Body) AppendTags(dst []byte) []byte {
	for aux := b.aux; len(aux) > 0; {
		n, _ := tagSize(aux) // Parse checked every tag
		dst = append(dst, '\t', aux[0], aux[1], ':', samTagType(aux[2]), ':')
		dst = appendTagValue(dst, aux[2], aux[3:n])
		aux = aux[n:]
	}
	return dst
}

// DecodeRecord parses one record body (after the block_size field) into
// rec: Parse's checks, then the view materialized. The header
// resolves reference IDs to names.
func DecodeRecord(body []byte, rec *sam.Record, h *sam.Header) error {
	var b Body
	if err := b.Parse(body, len(h.Refs)); err != nil {
		return err
	}
	b.materialize(rec, h)
	return nil
}

// materialize fills rec from the view. The text of the name, SEQ, QUAL
// and every tag value goes into one allocation; each string is a window
// on bytes that are never written again (a regrowth leaves them behind).
func (b *Body) materialize(rec *sam.Record, h *sam.Header) {
	rec.Flag, rec.MapQ, rec.TLen = b.Flag, b.MapQ, b.TLen
	rec.RName = h.RefByID(int(b.RefID)).Name
	rec.Pos = b.Pos + 1
	switch {
	case b.NextRefID < 0:
		rec.RNext = "*"
	case b.NextRefID == b.RefID:
		rec.RNext = "="
	default:
		rec.RNext = h.RefByID(int(b.NextRefID)).Name
	}
	rec.PNext = b.NextPos + 1
	rec.Cigar = nil
	if n := len(b.Cigar) / 4; n > 0 {
		rec.Cigar = make(sam.Cigar, n)
		for i := range rec.Cigar {
			rec.Cigar[i] = b.op(i)
		}
	}

	seqLen := len(b.Qual)
	buf := append(make([]byte, 0, len(b.Name)+2*seqLen+2*len(b.aux)), b.Name...)
	rec.QName, rec.Seq, rec.Qual = kern.BytesString(buf), "*", "*"
	if rec.QName == "" {
		rec.QName = "*"
	}
	if seqLen > 0 {
		var tail []byte
		buf, tail = kern.Grow(buf, seqLen)
		kern.UnpackSeq(tail, b.Seq, seqLen)
		rec.Seq = kern.BytesString(tail)
		if b.Qual[0] != 0xff {
			buf, tail = kern.Grow(buf, seqLen)
			kern.AddConst(tail, b.Qual, 33)
			rec.Qual = kern.BytesString(tail)
		}
	}
	rec.Tags = rec.Tags[:0]
	for aux := b.aux; len(aux) > 0; {
		n, _ := tagSize(aux)
		from := len(buf)
		buf = appendTagValue(buf, aux[2], aux[3:n])
		rec.Tags = append(rec.Tags, sam.Tag{Name: [2]byte{aux[0], aux[1]}, Type: samTagType(aux[2]),
			Value: kern.BytesString(buf[from:])})
		aux = aux[n:]
	}
}

// tagWidth is the encoded size of one numeric tag value of the given
// type, 0 for a type that is not numeric.
func tagWidth(typ byte) int {
	switch typ {
	case 'c', 'C':
		return 1
	case 's', 'S':
		return 2
	case 'i', 'I', 'f':
		return 4
	}
	return 0
}

// tagSize checks the tag at the front of aux (name, type, value) and
// returns its encoded size. It is the one set of tag checks: Parse
// runs it over every tag, and the renderers trust what it passed.
func tagSize(aux []byte) (int, error) {
	if len(aux) < 3 {
		return 0, fmt.Errorf("%w: truncated tag", ErrInvalidRecord)
	}
	typ, v := aux[2], aux[3:]
	n := 0
	switch typ {
	case 'A':
		n = 1
	case 'c', 'C', 's', 'S', 'i', 'I', 'f':
		n = tagWidth(typ)
	case 'Z', 'H':
		n = bytes.IndexByte(v, 0) + 1
		if n == 0 {
			return 0, fmt.Errorf("%w: unterminated %c tag", ErrInvalidRecord, typ)
		}
	case 'B':
		if len(v) < 5 {
			return 0, fmt.Errorf("%w: truncated B tag", ErrInvalidRecord)
		}
		width := tagWidth(v[0])
		if width == 0 {
			return 0, fmt.Errorf("%w: B tag subtype %c", ErrInvalidRecord, v[0])
		}
		count := binary.LittleEndian.Uint32(v[1:])
		if uint64(count)*uint64(width) > uint64(len(v)-5) { // in 64 bits: no int overflow
			return 0, fmt.Errorf("%w: truncated B tag array", ErrInvalidRecord)
		}
		n = 5 + int(count)*width
	default:
		return 0, fmt.Errorf("%w: unknown tag type %c", ErrInvalidRecord, typ)
	}
	if len(v) < n {
		return 0, fmt.Errorf("%w: truncated %c tag", ErrInvalidRecord, typ)
	}
	return 3 + n, nil
}

// samTagType is the SAM type of a BAM tag type: every integer width is
// 'i'.
func samTagType(typ byte) byte {
	switch typ {
	case 'c', 'C', 's', 'S', 'I':
		return 'i'
	}
	return typ
}

// appendTagValue is the one renderer of a BAM tag value as SAM text: v
// is the value bytes of a tag of type typ, as tagSize measured them
// (a Z or H string with its NUL, a B array with its subtype and count).
// Integers of every width render in decimal and floats as the shortest
// float32 form.
func appendTagValue(dst []byte, typ byte, v []byte) []byte {
	switch typ {
	case 'A':
		return append(dst, v[0])
	case 'Z', 'H':
		return append(dst, v[:len(v)-1]...)
	case 'f':
		return strconv.AppendFloat(dst, float64(math.Float32frombits(binary.LittleEndian.Uint32(v))), 'g', -1, 32)
	case 'B':
		sub, width := v[0], tagWidth(v[0])
		dst = append(dst, sub)
		for el := v[5:]; len(el) > 0; el = el[width:] {
			dst = append(dst, ',')
			dst = appendTagValue(dst, sub, el[:width])
		}
		return dst
	}
	var n int64
	switch typ {
	case 'c':
		n = int64(int8(v[0]))
	case 'C':
		n = int64(v[0])
	case 's':
		n = int64(int16(binary.LittleEndian.Uint16(v)))
	case 'S':
		n = int64(binary.LittleEndian.Uint16(v))
	case 'i':
		n = int64(int32(binary.LittleEndian.Uint32(v)))
	default: // 'I'
		n = int64(binary.LittleEndian.Uint32(v))
	}
	return strconv.AppendInt(dst, n, 10)
}
