// Package formats implements the target-format side of the paper's
// converter: the "user programs" that turn one alignment object into one
// target object. Encoders exist for every format the paper lists —
// SAM, BED, BEDGRAPH, FASTA, FASTQ, JSON and YAML — and the Encoder
// interface is the extension point the paper advertises: supporting a new
// format means implementing one conversion function, with partitioning
// and I/O handled by the runtime.
package formats

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"parseq/internal/kern"
	"parseq/internal/sam"
)

// Encoder converts alignment objects into one target format. Encode
// appends the target object's textual form to dst; returning dst
// unchanged skips the record (how encoders express "this record has no
// representation in my format", e.g. an unmapped read in BED).
type Encoder interface {
	// Name is the format's registry key, e.g. "bed".
	Name() string
	// Extension is the conventional file suffix, e.g. ".bed".
	Extension() string
	// Header returns the file prologue for the format (possibly empty).
	Header(h *sam.Header) []byte
	// Encode appends rec's representation to dst.
	Encode(dst []byte, rec *sam.Record, h *sam.Header) ([]byte, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]func() Encoder{
		"sam":      func() Encoder { return SAM{} },
		"bed":      func() Encoder { return BED{} },
		"bedgraph": func() Encoder { return BEDGraph{} },
		"fasta":    func() Encoder { return FASTA{} },
		"fastq":    func() Encoder { return FASTQ{} },
		"json":     func() Encoder { return JSON{} },
		"yaml":     func() Encoder { return YAML{} },
	}
)

// Register adds a user-supplied target format — the extension mechanism
// of the paper's Section III-A: "all the user has to do is to implement
// a format conversion function in the user program". The factory is
// called once per conversion so encoders may hold per-run state.
// Registering an existing name (including a built-in) is an error;
// formats are global, and silent replacement would change other callers'
// conversions.
func Register(name string, factory func() Encoder) error {
	name = strings.ToLower(name)
	if name == "" || factory == nil {
		return fmt.Errorf("formats: invalid registration")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, exists := registry[name]; exists {
		return fmt.Errorf("formats: format %q already registered", name)
	}
	registry[name] = factory
	return nil
}

// New returns a fresh encoder for the named format.
func New(name string) (Encoder, error) {
	registryMu.RLock()
	f, ok := registry[strings.ToLower(name)]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("formats: unknown format %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	return f(), nil
}

// Names lists the registered formats, sorted.
func Names() []string {
	registryMu.RLock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	registryMu.RUnlock()
	sort.Strings(out)
	return out
}

// appendInt appends the decimal form of a possibly negative integer.
func appendInt(dst []byte, n int64) []byte { return strconv.AppendInt(dst, n, 10) }

// SAM re-emits records as SAM text (the BAM→SAM path of Table I).
type SAM struct{}

// Name implements Encoder.
func (SAM) Name() string { return "sam" }

// Extension implements Encoder.
func (SAM) Extension() string { return ".sam" }

// Header implements Encoder: the full SAM header section.
func (SAM) Header(h *sam.Header) []byte {
	if h == nil {
		return nil
	}
	return []byte(h.String())
}

// Encode implements Encoder. The record renders straight into dst
// (Record.AppendTo), so re-emitting SAM text costs no per-record
// allocation.
func (SAM) Encode(dst []byte, rec *sam.Record, h *sam.Header) ([]byte, error) {
	dst = rec.AppendTo(dst)
	return append(dst, '\n'), nil
}

// BED emits one six-column BED feature per mapped alignment: chrom,
// 0-based start, end, read name, score (MAPQ) and strand.
type BED struct{}

// Name implements Encoder.
func (BED) Name() string { return "bed" }

// Extension implements Encoder.
func (BED) Extension() string { return ".bed" }

// Header implements Encoder: BED files carry no header.
func (BED) Header(*sam.Header) []byte { return nil }

// Encode implements Encoder. Unmapped records are skipped.
func (BED) Encode(dst []byte, rec *sam.Record, h *sam.Header) ([]byte, error) {
	if rec.Unmapped() {
		return dst, nil
	}
	dst = appendInterval(dst, rec.RName, rec.Pos-1, rec.End())
	return appendFeature(dst, rec.QName, rec.MapQ, rec.Flag), nil
}

// appendInterval appends the chrom, 0-based start and end columns BED
// and BEDGRAPH share.
func appendInterval(dst []byte, rname string, start, end int32) []byte {
	dst = append(dst, rname...)
	dst = append(dst, '\t')
	dst = appendInt(dst, int64(start))
	dst = append(dst, '\t')
	return appendInt(dst, int64(end))
}

// appendFeature appends BED's name, score and strand columns.
func appendFeature[T string | []byte](dst []byte, name T, mapq uint8, f sam.Flag) []byte {
	dst = append(dst, '\t')
	dst = append(dst, name...)
	dst = append(dst, '\t')
	dst = appendInt(dst, int64(mapq))
	if f.Reverse() {
		return append(dst, "\t-\n"...)
	}
	return append(dst, "\t+\n"...)
}

// BEDGraph emits one four-column interval per mapped alignment: chrom,
// 0-based start, end and a unit coverage contribution. Accumulating the
// fourth column over overlapping intervals yields the coverage histogram
// the statistical module consumes. A BEDGRAPH record carries the least
// text of the paper's target formats, which is why its conversion is the
// least I/O intensive (and scales best in Figure 6).
type BEDGraph struct{}

// Name implements Encoder.
func (BEDGraph) Name() string { return "bedgraph" }

// Extension implements Encoder.
func (BEDGraph) Extension() string { return ".bedgraph" }

// Header implements Encoder: the conventional track declaration.
func (BEDGraph) Header(*sam.Header) []byte {
	return []byte("track type=bedGraph\n")
}

// Encode implements Encoder. Unmapped records are skipped.
func (BEDGraph) Encode(dst []byte, rec *sam.Record, h *sam.Header) ([]byte, error) {
	if rec.Unmapped() {
		return dst, nil
	}
	return append(appendInterval(dst, rec.RName, rec.Pos-1, rec.End()), "\t1\n"...), nil
}

// FASTA emits each primary alignment's read as a FASTA entry,
// reverse-complementing reverse-strand alignments so the original read
// orientation is recovered.
type FASTA struct{}

// Name implements Encoder.
func (FASTA) Name() string { return "fasta" }

// Extension implements Encoder.
func (FASTA) Extension() string { return ".fasta" }

// Header implements Encoder.
func (FASTA) Header(*sam.Header) []byte { return nil }

// Encode implements Encoder. Secondary and supplementary alignments are
// skipped so each read appears exactly once, matching Picard's SamToFastq
// semantics.
func (FASTA) Encode(dst []byte, rec *sam.Record, h *sam.Header) ([]byte, error) {
	if !rec.Flag.Primary() || rec.Seq == "*" {
		return dst, nil
	}
	dst = appendReadName(dst, '>', rec.QName, rec.Flag)
	return append(appendSeq(dst, rec.Seq, rec.Flag.Reverse()), '\n'), nil
}

// appendReadName appends a FASTA/FASTQ name line: the marker, the name
// and the mate suffix.
func appendReadName[T string | []byte](dst []byte, marker byte, name T, f sam.Flag) []byte {
	dst = append(dst, marker)
	dst = append(dst, name...)
	dst = append(dst, readSuffix(f)...)
	return append(dst, '\n')
}

// appendSeq appends a read's bases, mirrored straight into the output
// buffer (kern's word loops, no intermediate string) when reverse is set.
func appendSeq(dst []byte, seq string, reverse bool) []byte {
	if !reverse {
		return append(dst, seq...)
	}
	dst, tail := kern.Grow(dst, len(seq))
	kern.ReverseComplement(tail, kern.StringBytes(seq))
	return dst
}

// FASTQ emits each primary alignment's read and qualities as a FASTQ
// entry (the SAM→FASTQ path of Table I).
type FASTQ struct{}

// Name implements Encoder.
func (FASTQ) Name() string { return "fastq" }

// Extension implements Encoder.
func (FASTQ) Extension() string { return ".fastq" }

// Header implements Encoder.
func (FASTQ) Header(*sam.Header) []byte { return nil }

// Encode implements Encoder. Secondary and supplementary alignments are
// skipped; reverse-strand reads are restored to read orientation.
func (FASTQ) Encode(dst []byte, rec *sam.Record, h *sam.Header) ([]byte, error) {
	if !rec.Flag.Primary() || rec.Seq == "*" {
		return dst, nil
	}
	rev := rec.Flag.Reverse()
	dst = appendReadName(dst, '@', rec.QName, rec.Flag)
	dst = append(appendSeq(dst, rec.Seq, rev), "\n+\n"...)
	var tail []byte
	switch {
	case rec.Qual == "*":
		// Missing qualities render as the lowest score, one per base.
		dst, tail = kern.Grow(dst, len(rec.Seq))
		kern.Fill(tail, '!')
	case rev:
		dst, tail = kern.Grow(dst, len(rec.Qual))
		kern.Reverse(tail, kern.StringBytes(rec.Qual))
	default:
		dst = append(dst, rec.Qual...)
	}
	return append(dst, '\n'), nil
}

// readSuffix marks paired-end mates "/1" and "/2" in FASTA/FASTQ names.
func readSuffix(f sam.Flag) string {
	switch {
	case f.Paired() && f.Read1():
		return "/1"
	case f.Paired() && f.Read2():
		return "/2"
	}
	return ""
}
