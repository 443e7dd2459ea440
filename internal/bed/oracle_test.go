// The BED and BEDGRAPH readers and writers the package's tests read the
// converter's tracks back through: a test oracle, linked by no product
// binary (the converter renders BED through internal/formats).

package bed

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"parseq/internal/kern"
)

// Feature is one BED line. Start/End are 0-based half-open, per the
// format. Optional columns beyond the first three are zero-valued when
// absent; columns beyond six are kept verbatim in Extra.
type Feature struct {
	Chrom  string
	Start  int
	End    int
	Name   string
	Score  float64
	Strand byte // '+', '-' or 0 when absent
	Extra  []string
}

// Overlaps reports whether the feature overlaps [start, end) on chrom.
func (f Feature) Overlaps(chrom string, start, end int) bool {
	return f.Chrom == chrom && f.Start < end && f.End > start
}

// Len returns the feature length in bases.
func (f Feature) Len() int { return f.End - f.Start }

// ErrMalformed reports a syntactically invalid line.
var ErrMalformed = errors.New("bed: malformed input")

// atoiCoord converts a coordinate column. The overwhelmingly common
// case — a plain run of digits fitting int32, which is every genomic
// coordinate — takes the kern word-wide digit kernel; anything it
// rejects (signs, 2^31 and larger, junk) falls back to strconv.Atoi so
// accept/reject semantics and platform int-range behavior stay exactly
// Atoi's.
func atoiCoord(s string) (int, error) {
	if v, ok := kern.ParseUint(kern.StringBytes(s), 1<<31-1); ok {
		return int(v), nil
	}
	return strconv.Atoi(s)
}

// skippable reports track/browser/comment/blank lines.
func skippable(line string) bool {
	return line == "" || strings.HasPrefix(line, "#") ||
		strings.HasPrefix(line, "track") || strings.HasPrefix(line, "browser")
}

// Reader streams BED features.
type Reader struct {
	scan *bufio.Scanner
	line int
	err  error
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, 64<<10), 4<<20)
	return &Reader{scan: scan}
}

// Read returns the next feature, or io.EOF.
func (r *Reader) Read() (Feature, error) {
	if r.err != nil {
		return Feature{}, r.err
	}
	for r.scan.Scan() {
		r.line++
		line := r.scan.Text()
		if skippable(line) {
			continue
		}
		f, err := ParseFeature(line)
		if err != nil {
			r.err = fmt.Errorf("line %d: %w", r.line, err)
			return Feature{}, r.err
		}
		return f, nil
	}
	if err := r.scan.Err(); err != nil {
		r.err = err
		return Feature{}, err
	}
	r.err = io.EOF
	return Feature{}, io.EOF
}

// ReadAll consumes the remaining features.
func (r *Reader) ReadAll() ([]Feature, error) {
	var out []Feature
	for {
		f, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
}

// ParseFeature parses one BED line (3-12 columns).
func ParseFeature(line string) (Feature, error) {
	cols := strings.Split(line, "\t")
	if len(cols) < 3 {
		return Feature{}, fmt.Errorf("%w: %d columns", ErrMalformed, len(cols))
	}
	start, err := atoiCoord(cols[1])
	if err != nil {
		return Feature{}, fmt.Errorf("%w: start %q", ErrMalformed, cols[1])
	}
	end, err := atoiCoord(cols[2])
	if err != nil {
		return Feature{}, fmt.Errorf("%w: end %q", ErrMalformed, cols[2])
	}
	if start < 0 || end < start {
		return Feature{}, fmt.Errorf("%w: interval [%d, %d)", ErrMalformed, start, end)
	}
	f := Feature{Chrom: cols[0], Start: start, End: end}
	if len(cols) > 3 {
		f.Name = cols[3]
	}
	if len(cols) > 4 && cols[4] != "" && cols[4] != "." {
		f.Score, err = strconv.ParseFloat(cols[4], 64)
		if err != nil {
			return Feature{}, fmt.Errorf("%w: score %q", ErrMalformed, cols[4])
		}
	}
	if len(cols) > 5 {
		switch cols[5] {
		case "+":
			f.Strand = '+'
		case "-":
			f.Strand = '-'
		case ".", "":
		default:
			return Feature{}, fmt.Errorf("%w: strand %q", ErrMalformed, cols[5])
		}
	}
	if len(cols) > 6 {
		f.Extra = cols[6:]
	}
	return f, nil
}

// String renders the feature as a BED line with as many columns as it
// carries values for.
func (f Feature) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\t%d\t%d", f.Chrom, f.Start, f.End)
	cols := 3
	emitTo := func(n int) {
		for cols < n {
			switch cols {
			case 3:
				b.WriteByte('\t')
				if f.Name == "" {
					b.WriteByte('.')
				} else {
					b.WriteString(f.Name)
				}
			case 4:
				fmt.Fprintf(&b, "\t%g", f.Score)
			case 5:
				b.WriteByte('\t')
				if f.Strand == 0 {
					b.WriteByte('.')
				} else {
					b.WriteByte(f.Strand)
				}
			}
			cols++
		}
	}
	max := 3
	if f.Name != "" {
		max = 4
	}
	if f.Score != 0 {
		max = 5
	}
	if f.Strand != 0 {
		max = 6
	}
	if len(f.Extra) > 0 {
		max = 6
	}
	emitTo(max)
	for _, e := range f.Extra {
		b.WriteByte('\t')
		b.WriteString(e)
	}
	return b.String()
}

// Writer emits BED features.
type Writer struct {
	bw *bufio.Writer
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 64<<10)}
}

// Write emits one feature line.
func (w *Writer) Write(f Feature) error {
	if _, err := w.bw.WriteString(f.String()); err != nil {
		return err
	}
	return w.bw.WriteByte('\n')
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// GraphInterval is one BEDGRAPH line: a value over a 0-based half-open
// interval.
type GraphInterval struct {
	Chrom string
	Start int
	End   int
	Value float64
}

// ReadGraph parses a BEDGRAPH stream, skipping track and comment lines.
func ReadGraph(r io.Reader) ([]GraphInterval, error) {
	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, 64<<10), 4<<20)
	var out []GraphInterval
	line := 0
	for scan.Scan() {
		line++
		text := scan.Text()
		if skippable(text) {
			continue
		}
		cols := strings.Split(text, "\t")
		if len(cols) < 4 {
			return nil, fmt.Errorf("line %d: %w: %d columns", line, ErrMalformed, len(cols))
		}
		start, err := atoiCoord(cols[1])
		if err != nil {
			return nil, fmt.Errorf("line %d: %w: start %q", line, ErrMalformed, cols[1])
		}
		end, err := atoiCoord(cols[2])
		if err != nil {
			return nil, fmt.Errorf("line %d: %w: end %q", line, ErrMalformed, cols[2])
		}
		value, err := strconv.ParseFloat(cols[3], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w: value %q", line, ErrMalformed, cols[3])
		}
		if start < 0 || end < start {
			return nil, fmt.Errorf("line %d: %w: interval [%d, %d)", line, ErrMalformed, start, end)
		}
		out = append(out, GraphInterval{Chrom: cols[0], Start: start, End: end, Value: value})
	}
	return out, scan.Err()
}

// FilterOverlapping returns the features overlapping [start, end) on
// chrom, in input order.
func FilterOverlapping(fs []Feature, chrom string, start, end int) []Feature {
	var out []Feature
	for _, f := range fs {
		if f.Overlaps(chrom, start, end) {
			out = append(out, f)
		}
	}
	return out
}

// TotalCoverage sums value×length over graph intervals on chrom — the
// aggregate the coverage histogram conserves.
func TotalCoverage(gs []GraphInterval, chrom string) float64 {
	total := 0.0
	for _, g := range gs {
		if g.Chrom == chrom {
			total += g.Value * float64(g.End-g.Start)
		}
	}
	return total
}
