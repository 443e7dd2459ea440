// The SAM record parser and renderer. Every text reader in the
// repository — the converter's batch engine, sam.Reader, the flagstat and
// histogram scans — parses lines in place through ParseRecordIntoBytes;
// converting each line to a string first would put one copy per record
// back on the allocator. The string fields of a record parsed this way
// alias the input buffer, so the buffer must stay untouched for as long
// as the record is in use.

package sam

import (
	"fmt"
	"math"
	"unsafe"

	"parseq/internal/kern"
)

// ParseRecordIntoBytes parses one tab-delimited alignment line (without
// the trailing newline) into r in place, with zero per-line allocation:
// r's string fields alias line's backing array. The caller owns the
// lifetime contract — the buffer must not be modified or recycled while
// r is in use. r's Tags and Cigar capacity is reused, so callers that
// retain parsed records across calls must pass a fresh Record (or copy
// the slices). Field delimitation and numeric fields run through the
// word-wide kern scanners.
func ParseRecordIntoBytes(r *Record, line []byte) error {
	r.Tags = r.Tags[:0]
	return parseRecordIntoBytes(r, line)
}

// parseRecordIntoBytes walks the fields with a cursor (a trailing tab
// does not produce a final empty field), kern.IndexByte delimiting
// fields and kern.ParseUint converting the bounded numeric columns eight
// digits per step.
func parseRecordIntoBytes(r *Record, line []byte) error {
	rest := line
	next := func() ([]byte, bool) {
		if len(rest) == 0 {
			return nil, false
		}
		if i := kern.IndexByte(rest, '\t'); i >= 0 {
			f := rest[:i]
			rest = rest[i+1:]
			return f, true
		}
		f := rest
		rest = nil
		return f, true
	}

	field, ok := next()
	if !ok || len(field) == 0 {
		return fmt.Errorf("%w: empty QNAME", ErrInvalidRecord)
	}
	r.QName = bytesToString(field)

	field, ok = next()
	if !ok {
		return fmt.Errorf("%w: missing FLAG", ErrInvalidRecord)
	}
	flag, pok := kern.ParseUint(field, 1<<16-1)
	if !pok {
		return fmt.Errorf("%w: FLAG %q", ErrInvalidRecord, field)
	}
	r.Flag = Flag(flag)

	field, ok = next()
	if !ok || len(field) == 0 {
		return fmt.Errorf("%w: missing RNAME", ErrInvalidRecord)
	}
	r.RName = bytesToString(field)

	field, ok = next()
	if !ok {
		return fmt.Errorf("%w: missing POS", ErrInvalidRecord)
	}
	pos, pok := kern.ParseUint(field, 1<<31-1)
	if !pok {
		return fmt.Errorf("%w: POS %q", ErrInvalidRecord, field)
	}
	r.Pos = int32(pos)

	field, ok = next()
	if !ok {
		return fmt.Errorf("%w: missing MAPQ", ErrInvalidRecord)
	}
	mapq, pok := kern.ParseUint(field, 255)
	if !pok {
		return fmt.Errorf("%w: MAPQ %q", ErrInvalidRecord, field)
	}
	r.MapQ = uint8(mapq)

	field, ok = next()
	if !ok {
		return fmt.Errorf("%w: missing CIGAR", ErrInvalidRecord)
	}
	var err error
	r.Cigar, err = ParseCigarInto(r.Cigar, bytesToString(field))
	if err != nil {
		return err
	}

	field, ok = next()
	if !ok || len(field) == 0 {
		return fmt.Errorf("%w: missing RNEXT", ErrInvalidRecord)
	}
	r.RNext = bytesToString(field)

	field, ok = next()
	if !ok {
		return fmt.Errorf("%w: missing PNEXT", ErrInvalidRecord)
	}
	pnext, pok := kern.ParseUint(field, 1<<31-1)
	if !pok {
		return fmt.Errorf("%w: PNEXT %q", ErrInvalidRecord, field)
	}
	r.PNext = int32(pnext)

	field, ok = next()
	if !ok {
		return fmt.Errorf("%w: missing TLEN", ErrInvalidRecord)
	}
	tlen, pok := parseTLen(field)
	if !pok {
		return fmt.Errorf("%w: TLEN %q", ErrInvalidRecord, field)
	}
	r.TLen = tlen

	field, ok = next()
	if !ok || len(field) == 0 {
		return fmt.Errorf("%w: missing SEQ", ErrInvalidRecord)
	}
	r.Seq = bytesToString(field)

	field, ok = next()
	if !ok || len(field) == 0 {
		return fmt.Errorf("%w: missing QUAL", ErrInvalidRecord)
	}
	r.Qual = bytesToString(field)
	if r.Seq != "*" && r.Qual != "*" && len(r.Seq) != len(r.Qual) {
		return fmt.Errorf("%w: SEQ/QUAL length mismatch (%d vs %d)",
			ErrInvalidRecord, len(r.Seq), len(r.Qual))
	}

	for {
		field, ok = next()
		if !ok {
			break
		}
		tag, err := ParseTag(bytesToString(field))
		if err != nil {
			return err
		}
		r.Tags = append(r.Tags, tag)
	}
	return nil
}

// parseTLen parses a signed 32-bit decimal with exactly
// strconv.ParseInt(s, 10, 32)'s accept set: optional single sign,
// digits only, range [-2^31, 2^31-1].
func parseTLen(field []byte) (int32, bool) {
	digits := field
	neg := false
	max := uint64(math.MaxInt32)
	if len(digits) > 0 && (digits[0] == '+' || digits[0] == '-') {
		neg = digits[0] == '-'
		digits = digits[1:]
		if neg {
			max = 1 << 31
		}
	}
	v, ok := kern.ParseUint(digits, max)
	if !ok {
		return 0, false
	}
	if neg {
		return int32(-int64(v)), true
	}
	return int32(v), true
}

// bytesToString aliases b as a string without copying. Safe exactly as
// long as b is not mutated while the string is reachable; the parse
// entry points above push that contract to their callers.
func bytesToString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// stringBytes aliases s as a byte slice without copying — read-only by
// contract, used to hand string fields to the kern loops.
func stringBytes(s string) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// AppendTo appends the record's SAM text form to dst, without a
// trailing newline — the one renderer behind String, sam.Writer and the
// SAM encoder, so the convert hot path renders into pooled buffers.
func (r *Record) AppendTo(dst []byte) []byte {
	dst = append(dst, r.QName...)
	dst = append(dst, '\t')
	dst = appendUint(dst, uint64(r.Flag))
	dst = append(dst, '\t')
	dst = append(dst, r.RName...)
	dst = append(dst, '\t')
	dst = appendUint(dst, uint64(r.Pos))
	dst = append(dst, '\t')
	dst = appendUint(dst, uint64(r.MapQ))
	dst = append(dst, '\t')
	dst = r.Cigar.appendTo(dst)
	dst = append(dst, '\t')
	dst = append(dst, r.RNext...)
	dst = append(dst, '\t')
	dst = appendUint(dst, uint64(r.PNext))
	dst = append(dst, '\t')
	if r.TLen < 0 {
		dst = append(dst, '-')
		dst = appendUint(dst, uint64(-int64(r.TLen)))
	} else {
		dst = appendUint(dst, uint64(r.TLen))
	}
	dst = append(dst, '\t')
	dst = append(dst, r.Seq...)
	dst = append(dst, '\t')
	dst = append(dst, r.Qual...)
	for _, t := range r.Tags {
		dst = append(dst, '\t', t.Name[0], t.Name[1], ':', t.Type, ':')
		dst = append(dst, t.Value...)
	}
	return dst
}

// appendUint appends the decimal form of a non-negative integer.
func appendUint(dst []byte, n uint64) []byte {
	if n == 0 {
		return append(dst, '0')
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return append(dst, buf[i:]...)
}
