package sam

import (
	"bufio"
	"errors"
	"fmt"
	"strings"
	"testing"
)

const sampleHeader = "@HD\tVN:1.4\tSO:coordinate\n" +
	"@SQ\tSN:chr1\tLN:197195432\n" +
	"@SQ\tSN:chr2\tLN:181748087\n" +
	"@RG\tID:grp1\tSM:mouse1\tLB:lib1\tPL:ILLUMINA\n" +
	"@PG\tID:bwa\tPN:bwa\tVN:0.6.2\tCL:bwa aln ref.fa reads.fq\n" +
	"@CO\tsynthetic dataset\n"

func TestParseHeader(t *testing.T) {
	h, err := ParseHeader(sampleHeader)
	if err != nil {
		t.Fatalf("ParseHeader: %v", err)
	}
	if h.Version != "1.4" {
		t.Errorf("Version = %q", h.Version)
	}
	if h.SortOrder != SortCoordinate {
		t.Errorf("SortOrder = %q", h.SortOrder)
	}
	if len(h.Refs) != 2 {
		t.Fatalf("Refs = %d, want 2", len(h.Refs))
	}
	if h.Refs[0].Name != "chr1" || h.Refs[0].Length != 197195432 || h.Refs[0].ID != 0 {
		t.Errorf("Refs[0] = %+v", h.Refs[0])
	}
	if len(h.ReadGroups) != 1 || h.ReadGroups[0].Sample != "mouse1" {
		t.Errorf("ReadGroups = %+v", h.ReadGroups)
	}
	if len(h.Programs) != 1 || h.Programs[0].Name != "bwa" {
		t.Errorf("Programs = %+v", h.Programs)
	}
	if len(h.Comments) != 1 || h.Comments[0] != "synthetic dataset" {
		t.Errorf("Comments = %+v", h.Comments)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h, err := ParseHeader(sampleHeader)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.String(); got != sampleHeader {
		t.Errorf("round trip:\n got %q\nwant %q", got, sampleHeader)
	}
}

func TestHeaderRefID(t *testing.T) {
	h, err := ParseHeader(sampleHeader)
	if err != nil {
		t.Fatal(err)
	}
	if id := h.RefID("chr2"); id != 1 {
		t.Errorf("RefID(chr2) = %d, want 1", id)
	}
	if id := h.RefID("chrX"); id != -1 {
		t.Errorf("RefID(chrX) = %d, want -1", id)
	}
	if id := h.RefID("*"); id != -1 {
		t.Errorf("RefID(*) = %d, want -1", id)
	}
	if ref := h.RefByID(1); ref.Name != "chr2" {
		t.Errorf("RefByID(1) = %+v", ref)
	}
	if ref := h.RefByID(-1); ref.Name != "*" {
		t.Errorf("RefByID(-1) = %+v", ref)
	}
	if ref := h.RefByID(99); ref.Name != "*" {
		t.Errorf("RefByID(99) = %+v", ref)
	}
}

func TestAddReferenceIdempotent(t *testing.T) {
	h := NewHeader()
	a := h.AddReference("chr1", 100)
	b := h.AddReference("chr1", 100)
	if a != b {
		t.Errorf("AddReference twice: %d vs %d", a, b)
	}
	if len(h.Refs) != 1 {
		t.Errorf("Refs = %d, want 1", len(h.Refs))
	}
}

func TestHeaderClone(t *testing.T) {
	h, err := ParseHeader(sampleHeader)
	if err != nil {
		t.Fatal(err)
	}
	c := h.Clone()
	c.AddReference("chrM", 16299)
	if len(h.Refs) != 2 {
		t.Errorf("clone mutated original: Refs = %d", len(h.Refs))
	}
	if c.RefID("chrM") != 2 {
		t.Errorf("clone RefID(chrM) = %d", c.RefID("chrM"))
	}
	if c.RefID("chr1") != 0 {
		t.Errorf("clone lost chr1 mapping")
	}
}

func TestParseHeaderErrors(t *testing.T) {
	cases := []string{
		"bad line",
		"@SQ\tLN:100",       // missing SN
		"@SQ\tSN:c\tLN:abc", // bad LN
		"@RG\tSM:x",         // missing ID
		"@ZZ\tfoo:bar",      // unknown record type
		"@SQ\tSN:*\tLN:100", // the name of no reference
	}
	for _, line := range cases {
		if _, err := ParseHeader(line); !errors.Is(err, ErrInvalidHeader) {
			t.Errorf("ParseHeader(%q) = %v, want ErrInvalidHeader", line, err)
		}
	}
}

func TestParseHeaderCRLF(t *testing.T) {
	h, err := ParseHeader("@SQ\tSN:chr1\tLN:5\r\n@CO\thello\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Refs) != 1 || h.Refs[0].Length != 5 {
		t.Errorf("Refs = %+v", h.Refs)
	}
	if len(h.Comments) != 1 || h.Comments[0] != "hello" {
		t.Errorf("Comments = %+v", h.Comments)
	}
}

func TestReaderWriter(t *testing.T) {
	input := sampleHeader + sampleLine + "\n" +
		"r002\t0\tchr2\t100\t60\t10M\t*\t0\t0\tAAAAACCCCC\tJJJJJJJJJJ\n"
	h, recs, err := readAll(t, input)
	if err != nil {
		t.Fatalf("readAll: %v", err)
	}
	if len(h.Refs) != 2 {
		t.Fatalf("header refs = %d", len(h.Refs))
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if recs[1].RName != "chr2" || recs[1].Pos != 100 {
		t.Errorf("recs[1] = %+v", recs[1])
	}

	var out strings.Builder
	w, err := NewWriter(&out, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if out.String() != input {
		t.Errorf("writer round trip:\n got %q\nwant %q", out.String(), input)
	}
}

func TestReaderHeaderless(t *testing.T) {
	h, recs, err := readAll(t, sampleLine+"\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Refs) != 0 || len(recs) != 1 {
		t.Fatalf("refs = %d, records = %d, want 0 and 1", len(h.Refs), len(recs))
	}
}

func TestReaderEmpty(t *testing.T) {
	_, recs, err := readAll(t, "")
	if err != nil || len(recs) != 0 {
		t.Errorf("readAll = %d recs, %v", len(recs), err)
	}
}

func TestReaderNoTrailingNewline(t *testing.T) {
	_, recs, err := readAll(t, sampleLine)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].QName != "r001" {
		t.Errorf("records = %+v", recs)
	}
}

func TestReaderSkipsBlankLines(t *testing.T) {
	_, recs, err := readAll(t, sampleLine+"\n\n"+sampleLine+"\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Errorf("records = %d, want 2", len(recs))
	}
}

// TestReaderReportsLineOffset: a bad line's error names its file
// offset, past the header ScanHeader measured.
func TestReaderReportsLineOffset(t *testing.T) {
	input := "@SQ\tSN:chr1\tLN:5\n" + sampleLine + "\n\nnot\ta valid\trecord\n"
	_, _, err := readAll(t, input)
	want := fmt.Sprintf("file offset %d:", len(input)-len("not\ta valid\trecord\n"))
	if !errors.Is(err, ErrInvalidRecord) || !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want ErrInvalidRecord at %q", err, want)
	}
}

// TestScanHeaderLineLimit shrinks the line limit and requires ScanHeader
// to refuse an over-limit header line at its offset, as the alignment
// line readers do, and to accept one a byte under the limit.
func TestScanHeaderLineLimit(t *testing.T) {
	old := MaxLineBytes
	MaxLineBytes = 64 << 10
	defer func() { MaxLineBytes = old }()

	hd := "@HD\tVN:1.6\n"
	long := "@CO\t" + strings.Repeat("x", 1<<20) + "\n"
	_, _, err := ScanHeader(strings.NewReader(hd + long + sampleLine + "\n"))
	if want := LineTooLongError(int64(len(hd))).Error(); !errors.Is(err, bufio.ErrTooLong) || err.Error() != want {
		t.Errorf("ScanHeader error = %v, want %q", err, want)
	}

	edge := "@CO\t" + strings.Repeat("x", MaxLineBytes-1-len("@CO\t")) + "\n"
	h, start, err := ScanHeader(strings.NewReader(hd + edge + sampleLine + "\n"))
	if err != nil {
		t.Fatalf("a header line under the limit: %v", err)
	}
	if start != int64(len(hd+edge)) || len(h.Comments) != 1 {
		t.Errorf("data start = %d, comments = %d; want %d and 1", start, len(h.Comments), len(hd+edge))
	}
}
