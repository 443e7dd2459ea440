// The FASTA and FASTQ readers and writers the package's tests read the
// converter's output back through: a test oracle, linked by no product
// binary (the converter renders both formats through internal/formats).
// FASTA sequences may span multiple lines; FASTQ records are the
// conventional four-line form with free-text "+" separators tolerated.

package fastq

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Record is one sequence entry. Qual is empty for FASTA records.
type Record struct {
	Name string // without the '>' or '@' marker
	Seq  string
	Qual string
}

// IsFASTQ reports whether the record carries qualities.
func (r Record) IsFASTQ() bool { return r.Qual != "" }

// Format identifies the detected stream format.
type Format int

// Stream formats.
const (
	FormatUnknown Format = iota
	FormatFASTA
	FormatFASTQ
)

// ErrMalformed reports a syntactically invalid stream.
var ErrMalformed = errors.New("fastq: malformed input")

// Reader streams FASTA or FASTQ records, auto-detecting the format from
// the first record marker.
type Reader struct {
	br     *bufio.Reader
	format Format
	line   int
	err    error
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Detected returns the stream format once the first record has been read.
func (r *Reader) Detected() Format { return r.format }

func (r *Reader) readLine() (string, error) {
	line, err := r.br.ReadString('\n')
	if line == "" && err != nil {
		return "", err
	}
	r.line++
	line = strings.TrimSuffix(line, "\n")
	line = strings.TrimSuffix(line, "\r")
	return line, nil
}

// peekByte returns the next byte without consuming it.
func (r *Reader) peekByte() (byte, error) {
	b, err := r.br.Peek(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// Read returns the next record, or io.EOF.
func (r *Reader) Read() (Record, error) {
	if r.err != nil {
		return Record{}, r.err
	}
	// Skip blank lines between records.
	for {
		b, err := r.peekByte()
		if err != nil {
			r.err = err
			return Record{}, err
		}
		if b == '\n' || b == '\r' {
			if _, err := r.readLine(); err != nil {
				r.err = err
				return Record{}, err
			}
			continue
		}
		switch b {
		case '>':
			if r.format == FormatFASTQ {
				r.err = fmt.Errorf("%w: FASTA record in FASTQ stream at line %d", ErrMalformed, r.line+1)
				return Record{}, r.err
			}
			r.format = FormatFASTA
			return r.readFASTA()
		case '@':
			if r.format == FormatFASTA {
				r.err = fmt.Errorf("%w: FASTQ record in FASTA stream at line %d", ErrMalformed, r.line+1)
				return Record{}, r.err
			}
			r.format = FormatFASTQ
			return r.readFASTQ()
		default:
			r.err = fmt.Errorf("%w: unexpected %q at line %d", ErrMalformed, b, r.line+1)
			return Record{}, r.err
		}
	}
}

// readFASTA consumes one '>' header plus sequence lines until the next
// header or EOF.
func (r *Reader) readFASTA() (Record, error) {
	header, err := r.readLine()
	if err != nil {
		r.err = err
		return Record{}, err
	}
	rec := Record{Name: strings.TrimPrefix(header, ">")}
	var seq strings.Builder
	for {
		b, err := r.peekByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			r.err = err
			return Record{}, err
		}
		if b == '>' {
			break
		}
		line, err := r.readLine()
		if err != nil {
			r.err = err
			return Record{}, err
		}
		seq.WriteString(strings.TrimSpace(line))
	}
	rec.Seq = seq.String()
	if rec.Seq == "" {
		return Record{}, fmt.Errorf("%w: empty FASTA sequence for %q", ErrMalformed, rec.Name)
	}
	return rec, nil
}

// readFASTQ consumes the four-line record form.
func (r *Reader) readFASTQ() (Record, error) {
	header, err := r.readLine()
	if err != nil {
		r.err = err
		return Record{}, err
	}
	seq, err := r.readLine()
	if err != nil {
		r.err = fmt.Errorf("%w: truncated FASTQ record %q", ErrMalformed, header)
		return Record{}, r.err
	}
	plus, err := r.readLine()
	if err != nil || !strings.HasPrefix(plus, "+") {
		r.err = fmt.Errorf("%w: missing '+' line for %q", ErrMalformed, header)
		return Record{}, r.err
	}
	qual, err := r.readLine()
	if err != nil {
		r.err = fmt.Errorf("%w: missing quality line for %q", ErrMalformed, header)
		return Record{}, r.err
	}
	if len(qual) != len(seq) {
		r.err = fmt.Errorf("%w: %q SEQ/QUAL length mismatch (%d vs %d)",
			ErrMalformed, header, len(seq), len(qual))
		return Record{}, r.err
	}
	return Record{
		Name: strings.TrimPrefix(header, "@"),
		Seq:  seq,
		Qual: qual,
	}, nil
}

// ReadAll consumes the remaining records.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// Writer emits FASTA or FASTQ records.
type Writer struct {
	bw        *bufio.Writer
	lineWidth int // FASTA wrap width; ≤ 0 means unwrapped
}

// NewWriter wraps w. lineWidth sets FASTA sequence wrapping (0 = none).
func NewWriter(w io.Writer, lineWidth int) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 64<<10), lineWidth: lineWidth}
}

// WriteFASTA emits rec as a FASTA entry.
func (w *Writer) WriteFASTA(rec Record) error {
	if _, err := fmt.Fprintf(w.bw, ">%s\n", rec.Name); err != nil {
		return err
	}
	seq := rec.Seq
	if w.lineWidth <= 0 {
		_, err := fmt.Fprintf(w.bw, "%s\n", seq)
		return err
	}
	for len(seq) > 0 {
		n := w.lineWidth
		if n > len(seq) {
			n = len(seq)
		}
		if _, err := fmt.Fprintf(w.bw, "%s\n", seq[:n]); err != nil {
			return err
		}
		seq = seq[n:]
	}
	return nil
}

// WriteFASTQ emits rec as a FASTQ entry.
func (w *Writer) WriteFASTQ(rec Record) error {
	if len(rec.Qual) != len(rec.Seq) {
		return fmt.Errorf("%w: %q SEQ/QUAL length mismatch", ErrMalformed, rec.Name)
	}
	_, err := fmt.Fprintf(w.bw, "@%s\n%s\n+\n%s\n", rec.Name, rec.Seq, rec.Qual)
	return err
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }
