package sam

import (
	"errors"
	"fmt"
)

// CigarOpType identifies one CIGAR operation kind. The numeric values
// match the BAM binary encoding (MIDNSHP=X → 0..8) so the SAM and BAM
// codecs share one representation.
type CigarOpType uint8

// CIGAR operation kinds.
const (
	CigarMatch     CigarOpType = iota // M: alignment match (can be mismatch)
	CigarInsertion                    // I: insertion to the reference
	CigarDeletion                     // D: deletion from the reference
	CigarSkipped                      // N: skipped region from the reference
	CigarSoftClip                     // S: soft clipping (clipped sequence present in SEQ)
	CigarHardClip                     // H: hard clipping (clipped sequence absent)
	CigarPadding                      // P: padding (silent deletion from padded reference)
	CigarEqual                        // =: sequence match
	CigarDiff                         // X: sequence mismatch
	cigarOpCount
)

const cigarOpChars = "MIDNSHP=X"

// consumesQuery[op] reports whether the op consumes query (read) bases.
var consumesQuery = [cigarOpCount]bool{
	CigarMatch: true, CigarInsertion: true, CigarSoftClip: true,
	CigarEqual: true, CigarDiff: true,
}

// consumesReference[op] reports whether the op consumes reference bases.
var consumesReference = [cigarOpCount]bool{
	CigarMatch: true, CigarDeletion: true, CigarSkipped: true,
	CigarEqual: true, CigarDiff: true,
}

// Char returns the single-letter SAM representation of the op type.
func (t CigarOpType) Char() byte {
	if t >= cigarOpCount {
		return '?'
	}
	return cigarOpChars[t]
}

// ConsumesQuery reports whether the op advances along the read.
func (t CigarOpType) ConsumesQuery() bool {
	return t < cigarOpCount && consumesQuery[t]
}

// ConsumesReference reports whether the op advances along the reference.
func (t CigarOpType) ConsumesReference() bool {
	return t < cigarOpCount && consumesReference[t]
}

// CigarOp packs an operation length and type in the BAM layout:
// length<<4 | type.
type CigarOp uint32

// NewCigarOp builds a CigarOp from a type and a length. Lengths are
// clamped to the 28-bit field of the BAM encoding.
func NewCigarOp(t CigarOpType, n int) CigarOp {
	const maxLen = 1<<28 - 1
	if n < 0 {
		n = 0
	}
	if n > maxLen {
		n = maxLen
	}
	return CigarOp(uint32(n)<<4 | uint32(t)&0xf)
}

// Type returns the operation kind.
func (op CigarOp) Type() CigarOpType { return CigarOpType(op & 0xf) }

// Len returns the operation length.
func (op CigarOp) Len() int { return int(op >> 4) }

// String renders the op in SAM text form, e.g. "76M".
func (op CigarOp) String() string {
	return fmt.Sprintf("%d%c", op.Len(), op.Type().Char())
}

// Cigar is a parsed CIGAR string.
type Cigar []CigarOp

// ErrInvalidCigar reports a malformed CIGAR string.
var ErrInvalidCigar = errors.New("sam: invalid CIGAR")

var cigarOpLookup = func() [256]int8 {
	var t [256]int8
	for i := range t {
		t[i] = -1
	}
	for i := 0; i < len(cigarOpChars); i++ {
		t[cigarOpChars[i]] = int8(i)
	}
	return t
}()

// ParseCigar parses a SAM CIGAR field. The unavailable marker "*" parses
// to a nil Cigar.
func ParseCigar(s string) (Cigar, error) {
	c, err := ParseCigarInto(make(Cigar, 0, 4), s)
	if err != nil {
		return nil, err
	}
	if len(c) == 0 {
		return nil, nil
	}
	return c, nil
}

// ParseCigarInto parses a SAM CIGAR field into dst's backing array,
// growing it only when the operation count exceeds its capacity. The
// unavailable marker "*" yields dst truncated to length zero (which
// renders as "*", exactly like nil). Error messages are identical to
// ParseCigar's. It is the allocation-free counterpart for hot loops
// that parse into one reused Record.
func ParseCigarInto(dst Cigar, s string) (Cigar, error) {
	dst = dst[:0]
	if s == "*" || s == "" {
		return dst, nil
	}
	n := 0
	haveDigit := false
	for i := 0; i < len(s); i++ {
		b := s[i]
		if b >= '0' && b <= '9' {
			n = n*10 + int(b-'0')
			haveDigit = true
			continue
		}
		op := cigarOpLookup[b]
		if op < 0 || !haveDigit {
			return dst[:0], fmt.Errorf("%w: %q at offset %d", ErrInvalidCigar, s, i)
		}
		dst = append(dst, NewCigarOp(CigarOpType(op), n))
		n = 0
		haveDigit = false
	}
	if haveDigit {
		return dst[:0], fmt.Errorf("%w: %q ends in a length", ErrInvalidCigar, s)
	}
	return dst, nil
}

// String renders the CIGAR in SAM text form; a nil/empty Cigar renders as "*".
func (c Cigar) String() string {
	return string(c.appendTo(nil))
}

// appendTo appends the CIGAR's SAM text form to dst.
func (c Cigar) appendTo(dst []byte) []byte {
	if len(c) == 0 {
		return append(dst, '*')
	}
	for _, op := range c {
		dst = appendUint(dst, uint64(op.Len()))
		dst = append(dst, op.Type().Char())
	}
	return dst
}

// QueryLength returns the number of read bases the CIGAR consumes
// (the expected length of SEQ when SEQ is present).
func (c Cigar) QueryLength() int {
	n := 0
	for _, op := range c {
		if op.Type().ConsumesQuery() {
			n += op.Len()
		}
	}
	return n
}

// ReferenceLength returns the number of reference bases the CIGAR spans.
func (c Cigar) ReferenceLength() int {
	n := 0
	for _, op := range c {
		if op.Type().ConsumesReference() {
			n += op.Len()
		}
	}
	return n
}
