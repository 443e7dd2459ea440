package formats

import (
	"parseq/internal/bam"
	"parseq/internal/kern"
	"parseq/internal/sam"
)

// BodyEncoder is the optional body form of an Encoder: AppendBody
// renders one BAM record body (the bytes after block_size) straight into
// dst, with no sam.Record between. It must append exactly what Encode
// appends for the record bam.DecodeRecord makes of body, and fail
// exactly when that decode fails. The converter hands every binary
// source's bodies to it; a format without it, such as one added through
// Register, gets the decoded record instead.
type BodyEncoder interface {
	AppendBody(dst, body []byte, h *sam.Header) ([]byte, error)
}

var star = []byte("*")

// qname is a body's read name as the record path renders it: "*" when
// empty.
func qname(b *bam.Body) []byte {
	if len(b.Name) == 0 {
		return star
	}
	return b.Name
}

// appendBases appends the read's bases: unpacked, and in read
// orientation (reverse-complemented) when reverse is set.
func appendBases(dst []byte, b *bam.Body, reverse bool) []byte {
	n := len(b.Qual)
	if !reverse {
		dst, tail := kern.Grow(dst, n)
		kern.UnpackSeq(tail, b.Seq, n)
		return dst
	}
	// Unpack into scratch past the output, then mirror into place.
	dst, tail := kern.Grow(dst, 2*n)
	kern.UnpackSeq(tail[n:], b.Seq, n)
	kern.ReverseComplement(tail[:n], tail[n:])
	return dst[:len(dst)-n]
}

// AppendBody implements BodyEncoder.
func (SAM) AppendBody(dst, body []byte, h *sam.Header) ([]byte, error) {
	var b bam.Body
	if err := b.Parse(body, len(h.Refs)); err != nil {
		return dst, err
	}
	dst = append(dst, qname(&b)...)
	dst = append(dst, '\t')
	dst = appendInt(dst, int64(b.Flag))
	dst = append(dst, '\t')
	dst = append(dst, h.RefByID(int(b.RefID)).Name...)
	dst = append(dst, '\t')
	dst = appendInt(dst, int64(b.Pos)+1)
	dst = append(dst, '\t')
	dst = appendInt(dst, int64(b.MapQ))
	dst = append(dst, '\t')
	dst = b.AppendCigar(dst)
	switch {
	case b.NextRefID < 0:
		dst = append(dst, "\t*\t"...)
	case b.NextRefID == b.RefID:
		dst = append(dst, "\t=\t"...)
	default:
		dst = append(append(append(dst, '\t'), h.RefByID(int(b.NextRefID)).Name...), '\t')
	}
	dst = appendInt(dst, int64(b.NextPos)+1)
	dst = append(dst, '\t')
	dst = appendInt(dst, int64(b.TLen))
	switch n := len(b.Qual); {
	case n == 0:
		dst = append(dst, "\t*\t*"...)
	case b.Qual[0] == 0xff:
		dst = append(appendBases(append(dst, '\t'), &b, false), "\t*"...)
	default:
		dst = append(appendBases(append(dst, '\t'), &b, false), '\t')
		var tail []byte
		dst, tail = kern.Grow(dst, n)
		kern.AddConst(tail, b.Qual, 33)
	}
	return append(b.AppendTags(dst), '\n'), nil
}

// mappedBody parses body for BED and BEDGRAPH: ok is false for a record
// Encode skips as unmapped (sam.Record.Unmapped: by flag, by a "*"
// reference or by a missing position).
func mappedBody(b *bam.Body, body []byte, h *sam.Header) (rname string, ok bool, err error) {
	if err = b.Parse(body, len(h.Refs)); err != nil {
		return "", false, err
	}
	rname = h.RefByID(int(b.RefID)).Name
	return rname, !b.Flag.Unmapped() && rname != "*" && b.Pos >= 0, nil
}

// AppendBody implements BodyEncoder.
func (BED) AppendBody(dst, body []byte, h *sam.Header) ([]byte, error) {
	var b bam.Body
	rname, ok, err := mappedBody(&b, body, h)
	if !ok {
		return dst, err
	}
	dst = appendInterval(dst, rname, b.Pos, b.End())
	return appendFeature(dst, qname(&b), b.MapQ, b.Flag), nil
}

// AppendBody implements BodyEncoder.
func (BEDGraph) AppendBody(dst, body []byte, h *sam.Header) ([]byte, error) {
	var b bam.Body
	rname, ok, err := mappedBody(&b, body, h)
	if !ok {
		return dst, err
	}
	return append(appendInterval(dst, rname, b.Pos, b.End()), "\t1\n"...), nil
}

// AppendBody implements BodyEncoder.
func (FASTA) AppendBody(dst, body []byte, h *sam.Header) ([]byte, error) {
	var b bam.Body
	if err := b.Parse(body, len(h.Refs)); err != nil || !b.Flag.Primary() || len(b.Qual) == 0 {
		return dst, err
	}
	dst = appendReadName(dst, '>', qname(&b), b.Flag)
	return append(appendBases(dst, &b, b.Flag.Reverse()), '\n'), nil
}

// AppendBody implements BodyEncoder.
func (FASTQ) AppendBody(dst, body []byte, h *sam.Header) ([]byte, error) {
	var b bam.Body
	if err := b.Parse(body, len(h.Refs)); err != nil || !b.Flag.Primary() || len(b.Qual) == 0 {
		return dst, err
	}
	rev := b.Flag.Reverse()
	dst = appendReadName(dst, '@', qname(&b), b.Flag)
	dst = append(appendBases(dst, &b, rev), "\n+\n"...)
	dst, tail := kern.Grow(dst, len(b.Qual))
	switch {
	case b.Qual[0] == 0xff:
		kern.Fill(tail, '!') // as Encode renders QUAL "*"
	case rev:
		kern.Reverse(tail, b.Qual)
		kern.AddConst(tail, tail, 33)
	default:
		kern.AddConst(tail, b.Qual, 33)
	}
	return append(dst, '\n'), nil
}
