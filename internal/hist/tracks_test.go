package hist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The track-format readers and writers below round-trip a histogram
// through BEDGRAPH and fixedStep WIG, the track formats of the paper's
// Section II survey. No binary reads or writes histograms in them, so
// they live with the round-trip tests that exercise them.

// FromBEDGraph accumulates a BEDGRAPH stream (as the converter emits:
// chrom, 0-based start, end, value) into a histogram for one reference.
// Track declaration lines are skipped.
func FromBEDGraph(r io.Reader, rname string, refLen, binSize int) (*Histogram, error) {
	h, err := New(rname, refLen, binSize)
	if err != nil {
		return nil, err
	}
	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, 64<<10), 4<<20)
	lineNo := 0
	for scan.Scan() {
		lineNo++
		line := scan.Text()
		if line == "" || strings.HasPrefix(line, "track") || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) < 4 {
			return nil, fmt.Errorf("hist: BEDGRAPH line %d has %d fields", lineNo, len(fields))
		}
		if fields[0] != rname {
			continue
		}
		beg, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("hist: BEDGRAPH line %d start: %w", lineNo, err)
		}
		end, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("hist: BEDGRAPH line %d end: %w", lineNo, err)
		}
		val, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("hist: BEDGRAPH line %d value: %w", lineNo, err)
		}
		h.AddInterval(int32(beg)+1, int32(end), val)
	}
	if err := scan.Err(); err != nil {
		return nil, err
	}
	return h, nil
}

// WriteBEDGraph emits the histogram as BEDGRAPH, merging runs of equal
// values into single intervals (the format's concise-track property).
// Bins hold base-weighted mass; BEDGRAPH reports per-base depth, so each
// emitted value is the bin mass divided by the bin width.
func (h *Histogram) WriteBEDGraph(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("track type=bedGraph\n"); err != nil {
		return err
	}
	i := 0
	for i < len(h.Bins) {
		j := i + 1
		for j < len(h.Bins) && h.Bins[j] == h.Bins[i] {
			j++
		}
		if h.Bins[i] != 0 {
			fmt.Fprintf(bw, "%s\t%d\t%d\t%g\n",
				h.RName, i*h.BinSize, j*h.BinSize, h.Bins[i]/float64(h.BinSize))
		}
		i = j
	}
	return bw.Flush()
}

// WriteWIG emits the histogram in fixedStep WIG (wiggle) form — the
// remaining track format of the paper's Section II survey. Values are
// per-base depth (bin mass over bin width), one value per bin; zero runs
// are elided by restarting the step declaration, which is what keeps WIG
// compact on sparse tracks.
func (h *Histogram) WriteWIG(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "track type=wiggle_0\n"); err != nil {
		return err
	}
	inRun := false
	for i, mass := range h.Bins {
		if mass == 0 {
			inRun = false
			continue
		}
		if !inRun {
			// fixedStep positions are 1-based.
			if _, err := fmt.Fprintf(bw, "fixedStep chrom=%s start=%d step=%d span=%d\n",
				h.RName, i*h.BinSize+1, h.BinSize, h.BinSize); err != nil {
				return err
			}
			inRun = true
		}
		if _, err := fmt.Fprintf(bw, "%g\n", mass/float64(h.BinSize)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadWIG accumulates a fixedStep WIG stream into a histogram for one
// reference. Declarations for other chromosomes are skipped; the step
// and span must equal the histogram's bin size (the form WriteWIG
// produces).
func ReadWIG(r io.Reader, rname string, refLen, binSize int) (*Histogram, error) {
	h, err := New(rname, refLen, binSize)
	if err != nil {
		return nil, err
	}
	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, 64<<10), 4<<20)
	lineNo := 0
	pos := -1     // next 1-based position, -1 = no active declaration
	skip := false // current declaration is for another chromosome
	for scan.Scan() {
		lineNo++
		line := strings.TrimSpace(scan.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "track"):
			continue
		case strings.HasPrefix(line, "variableStep"):
			return nil, fmt.Errorf("hist: line %d: variableStep WIG is not supported", lineNo)
		case strings.HasPrefix(line, "fixedStep"):
			chrom, start, step, span, err := parseFixedStep(line)
			if err != nil {
				return nil, fmt.Errorf("hist: line %d: %w", lineNo, err)
			}
			if chrom != rname {
				skip = true
				pos = -1
				continue
			}
			if step != binSize || (span != 0 && span != binSize) {
				return nil, fmt.Errorf("hist: line %d: step/span %d/%d does not match bin size %d",
					lineNo, step, span, binSize)
			}
			skip = false
			pos = start
		default:
			if skip {
				continue
			}
			if pos < 0 {
				return nil, fmt.Errorf("hist: line %d: data before fixedStep declaration", lineNo)
			}
			v, err := strconv.ParseFloat(line, 64)
			if err != nil {
				return nil, fmt.Errorf("hist: line %d: %w", lineNo, err)
			}
			h.AddInterval(int32(pos), int32(pos+binSize-1), v)
			pos += binSize
		}
	}
	if err := scan.Err(); err != nil {
		return nil, err
	}
	return h, nil
}

func parseFixedStep(line string) (chrom string, start, step, span int, err error) {
	for _, field := range strings.Fields(line)[1:] {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return "", 0, 0, 0, fmt.Errorf("bad fixedStep field %q", field)
		}
		switch k {
		case "chrom":
			chrom = v
		case "start":
			start, err = strconv.Atoi(v)
		case "step":
			step, err = strconv.Atoi(v)
		case "span":
			span, err = strconv.Atoi(v)
		}
		if err != nil {
			return "", 0, 0, 0, fmt.Errorf("bad fixedStep %s %q", k, v)
		}
	}
	if chrom == "" || start < 1 || step < 1 {
		return "", 0, 0, 0, fmt.Errorf("incomplete fixedStep declaration %q", line)
	}
	return chrom, start, step, span, nil
}
