package sam

import (
	"errors"

	"parseq/internal/kern"
)

// Record is one alignment: the eleven mandatory SAM fields plus optional
// tags. Pos and PNext are 1-based as in SAM text; 0 means unavailable.
type Record struct {
	QName string // query template name; "*" when unavailable
	Flag  Flag   // bitwise flag
	RName string // reference sequence name; "*" when unmapped
	Pos   int32  // 1-based leftmost mapping position; 0 when unmapped
	MapQ  uint8  // mapping quality; 255 when unavailable
	Cigar Cigar  // parsed CIGAR; nil renders as "*"
	RNext string // reference name of the mate; "=", "*" or a name
	PNext int32  // 1-based position of the mate
	TLen  int32  // observed template length
	Seq   string // segment sequence; "*" when unavailable
	Qual  string // ASCII of base quality plus 33; "*" when unavailable
	Tags  []Tag  // optional fields
}

// ErrInvalidRecord reports a malformed alignment line.
var ErrInvalidRecord = errors.New("sam: invalid alignment record")

// ParseRecord parses one tab-delimited alignment line (without the
// trailing newline) into a new record. It runs ParseRecordIntoBytes over
// the string's own bytes, which nothing can modify, so the record's
// fields are substrings of line and the record may be kept.
func ParseRecord(line string) (Record, error) {
	var r Record
	if err := ParseRecordIntoBytes(&r, stringBytes(line)); err != nil {
		return Record{}, err
	}
	return r, nil
}

// Unmapped reports whether the record is unmapped either by flag or by a
// missing reference name/position.
func (r *Record) Unmapped() bool {
	return r.Flag.Unmapped() || r.RName == "*" || r.Pos == 0
}

// End returns the 1-based inclusive rightmost reference position covered
// by the alignment. For unmapped records or records without a CIGAR it
// returns Pos.
func (r *Record) End() int32 {
	refLen := r.Cigar.ReferenceLength()
	if refLen == 0 {
		return r.Pos
	}
	return r.Pos + int32(refLen) - 1
}

// MateRName resolves the "=" convention of the RNEXT field.
func (r *Record) MateRName() string {
	if r.RNext == "=" {
		return r.RName
	}
	return r.RNext
}

// Tag returns the first optional field with the given two-character name.
func (r *Record) Tag(name string) (Tag, bool) {
	if len(name) != 2 {
		return Tag{}, false
	}
	for _, t := range r.Tags {
		if t.Name[0] == name[0] && t.Name[1] == name[1] {
			return t, true
		}
	}
	return Tag{}, false
}

// String renders the record as one SAM alignment line without a trailing
// newline.
func (r *Record) String() string {
	return string(r.AppendTo(nil))
}

// ReverseComplement returns the reverse complement of a nucleotide
// sequence; ambiguity codes map through the IUPAC complement table and
// unknown bytes map to 'N'. The mirror loop runs word-wide in kern.
func ReverseComplement(seq string) string {
	out := make([]byte, len(seq))
	kern.ReverseComplement(out, stringBytes(seq))
	return bytesToString(out)
}

// Reverse returns s reversed; used for qualities of reverse-strand reads.
func Reverse(s string) string {
	out := make([]byte, len(s))
	kern.Reverse(out, stringBytes(s))
	return bytesToString(out)
}
