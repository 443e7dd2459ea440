// Package hist is the coverage-histogram substrate linking the converter
// to the statistical module: aligned reads are accumulated into
// fixed-width bins along the genome ("binned peaks"), which is the data
// the NL-means and FDR steps analyse. Histograms cross between the tools
// in a simple TSV form.
package hist

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"parseq/internal/sam"
)

// Histogram is a binned coverage track over one reference sequence.
type Histogram struct {
	RName   string
	BinSize int
	Bins    []float64
}

// New allocates a histogram covering refLen bases at the given bin size.
func New(rname string, refLen, binSize int) (*Histogram, error) {
	if binSize < 1 {
		return nil, fmt.Errorf("hist: invalid bin size %d", binSize)
	}
	if refLen < 0 {
		return nil, fmt.Errorf("hist: invalid reference length %d", refLen)
	}
	n := (refLen + binSize - 1) / binSize
	return &Histogram{RName: rname, BinSize: binSize, Bins: make([]float64, n)}, nil
}

// AddInterval accumulates weight over the 1-based inclusive interval
// [beg, end], clipped to the histogram. Each overlapped bin receives the
// weight times its overlapped fraction in bases.
func (h *Histogram) AddInterval(beg, end int32, weight float64) {
	if end < beg || len(h.Bins) == 0 {
		return
	}
	b := int(beg) - 1 // to 0-based
	e := int(end)     // exclusive
	if b < 0 {
		b = 0
	}
	if max := len(h.Bins) * h.BinSize; e > max {
		e = max
	}
	for b < e {
		bin := b / h.BinSize
		binEnd := (bin + 1) * h.BinSize
		over := e - b
		if binEnd-b < over {
			over = binEnd - b
		}
		h.Bins[bin] += weight * float64(over)
		b += over
	}
}

// AddRecord accumulates one aligned read's reference span.
func (h *Histogram) AddRecord(rec *sam.Record) {
	if rec.Unmapped() || rec.RName != h.RName {
		return
	}
	h.AddInterval(rec.Pos, rec.End(), 1)
}

// Coverage builds a histogram for one reference from alignment records.
func Coverage(recs []sam.Record, hd *sam.Header, rname string, binSize int) (*Histogram, error) {
	id := hd.RefID(rname)
	if id < 0 {
		return nil, fmt.Errorf("hist: reference %q not in header", rname)
	}
	h, err := New(rname, hd.RefByID(id).Length, binSize)
	if err != nil {
		return nil, err
	}
	for i := range recs {
		h.AddRecord(&recs[i])
	}
	return h, nil
}

// WriteTSV emits one value per line — the flat histogram-dataset form the
// statistics tools exchange.
func WriteTSV(w io.Writer, bins []float64) error {
	bw := bufio.NewWriter(w)
	for _, v := range bins {
		if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTSV reads the one-value-per-line histogram dataset at path.
func ReadTSV(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []float64
	scan := bufio.NewScanner(f)
	scan.Buffer(make([]byte, 64<<10), 4<<20)
	for scan.Scan() {
		line := strings.TrimSpace(scan.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("hist: %s: line %d: %w", path, len(out)+1, err)
		}
		out = append(out, v)
	}
	if err := scan.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("hist: %s: empty histogram dataset", path)
	}
	return out, nil
}
