// Package bam implements the BAM binary encoding of SAM alignments on top
// of the bgzf package: the file header with its reference dictionary,
// little-endian record codec (4-bit packed sequences, binary CIGAR, typed
// auxiliary tags) and the BAI index with the UCSC R-tree binning scheme.
package bam

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"parseq/internal/kern"
	"parseq/internal/sam"
)

// Magic identifies a BAM stream after BGZF decompression.
var Magic = []byte{'B', 'A', 'M', 1}

// ErrInvalidRecord reports a malformed binary record.
var ErrInvalidRecord = errors.New("bam: invalid record")

// seqNibbles maps 4-bit sequence codes to bases per the specification;
// the pack/unpack loops themselves run in the word-wide kern layer.
const seqNibbles = kern.SeqChars

// EncodeRecord appends the binary form of rec (including the leading
// block_size field) to dst and returns the extended slice. The header is
// used to resolve reference names to IDs.
func EncodeRecord(dst []byte, rec *sam.Record, h *sam.Header) ([]byte, error) {
	refID := h.RefID(rec.RName)
	nextRefID := refID
	switch rec.RNext {
	case "=":
	case "*":
		nextRefID = -1
	default:
		if nextRefID = h.RefID(rec.RNext); nextRefID < 0 {
			return nil, fmt.Errorf("%w: mate reference %q not in header", ErrInvalidRecord, rec.RNext)
		}
	}
	if rec.RName != "*" && refID < 0 {
		return nil, fmt.Errorf("%w: reference %q not in header", ErrInvalidRecord, rec.RName)
	}

	nameLen := len(rec.QName) + 1 // NUL-terminated
	if nameLen > 255 {
		return nil, fmt.Errorf("%w: QNAME longer than 254 bytes", ErrInvalidRecord)
	}
	if len(rec.Cigar) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d CIGAR operations, more than n_cigar_op holds", ErrInvalidRecord, len(rec.Cigar))
	}
	seqLen := 0
	if rec.Seq != "*" {
		seqLen = len(rec.Seq)
	}

	sizePos := len(dst)
	dst = append(dst, 0, 0, 0, 0) // block_size placeholder
	dst = appendInt32(dst, int32(refID))
	dst = appendInt32(dst, rec.Pos-1) // BAM positions are 0-based
	dst = append(dst, byte(nameLen), rec.MapQ)
	bin := reg2bin(int(rec.Pos-1), int(rec.End()))
	if rec.Unmapped() {
		bin = 4680 // convention for unplaced reads: bin of [-1, 0)
	}
	dst = appendUint16(dst, uint16(bin))
	dst = appendUint16(dst, uint16(len(rec.Cigar)))
	dst = appendUint16(dst, uint16(rec.Flag))
	dst = appendInt32(dst, int32(seqLen))
	dst = appendInt32(dst, int32(nextRefID))
	dst = appendInt32(dst, rec.PNext-1)
	dst = appendInt32(dst, rec.TLen)
	dst = append(dst, rec.QName...)
	dst = append(dst, 0)
	for _, op := range rec.Cigar {
		dst = appendUint32(dst, uint32(op))
	}
	if seqLen > 0 {
		var tail []byte
		dst, tail = kern.Grow(dst, (seqLen+1)/2)
		kern.PackSeq(tail, kern.StringBytes(rec.Seq))
		dst, tail = kern.Grow(dst, seqLen)
		if rec.Qual == "*" {
			kern.Fill(tail, 0xff)
		} else {
			kern.AddConst(tail, kern.StringBytes(rec.Qual)[:seqLen], 256-33)
		}
	}
	var err error
	for _, tag := range rec.Tags {
		dst, err = appendTag(dst, tag)
		if err != nil {
			return nil, err
		}
	}
	binary.LittleEndian.PutUint32(dst[sizePos:], uint32(len(dst)-sizePos-4))
	return dst, nil
}

func appendInt32(dst []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(v))
}

func appendUint32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendUint16(dst []byte, v uint16) []byte {
	return binary.LittleEndian.AppendUint16(dst, v)
}

// appendTag encodes one auxiliary field.
func appendTag(dst []byte, tag sam.Tag) ([]byte, error) {
	dst = append(dst, tag.Name[0], tag.Name[1])
	switch tag.Type {
	case 'A':
		if len(tag.Value) != 1 {
			return nil, fmt.Errorf("%w: A tag %s", ErrInvalidRecord, tag.NameString())
		}
		dst = append(dst, 'A', tag.Value[0])
	case 'i':
		v, err := strconv.ParseInt(tag.Value, 10, 64)
		if err != nil || v < math.MinInt32 || v > math.MaxUint32 {
			return nil, fmt.Errorf("%w: i tag %s value %q", ErrInvalidRecord, tag.NameString(), tag.Value)
		}
		if v > math.MaxInt32 {
			dst = append(dst, 'I')
			dst = appendUint32(dst, uint32(v))
		} else {
			dst = append(dst, 'i')
			dst = appendInt32(dst, int32(v))
		}
	case 'f':
		v, err := strconv.ParseFloat(tag.Value, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: f tag %s value %q", ErrInvalidRecord, tag.NameString(), tag.Value)
		}
		dst = append(dst, 'f')
		dst = appendUint32(dst, math.Float32bits(float32(v)))
	case 'Z', 'H':
		dst = append(dst, tag.Type)
		dst = append(dst, tag.Value...)
		dst = append(dst, 0)
	case 'B':
		return appendArrayTag(dst, tag)
	default:
		return nil, fmt.Errorf("%w: unknown tag type %c", ErrInvalidRecord, tag.Type)
	}
	return dst, nil
}

func appendArrayTag(dst []byte, tag sam.Tag) ([]byte, error) {
	sub, err := tag.ArraySubtype()
	if err != nil {
		return nil, err
	}
	parts := strings.Split(tag.Value, ",")[1:]
	dst = append(dst, 'B', sub)
	dst = appendUint32(dst, uint32(len(parts)))
	for _, p := range parts {
		if sub == 'f' {
			v, err := strconv.ParseFloat(p, 32)
			if err != nil {
				return nil, fmt.Errorf("%w: B tag element %q", ErrInvalidRecord, p)
			}
			dst = appendUint32(dst, math.Float32bits(float32(v)))
			continue
		}
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: B tag element %q", ErrInvalidRecord, p)
		}
		switch sub {
		case 'c', 'C':
			dst = append(dst, byte(v))
		case 's', 'S':
			dst = appendUint16(dst, uint16(v))
		case 'i', 'I':
			dst = appendUint32(dst, uint32(v))
		}
	}
	return dst, nil
}
