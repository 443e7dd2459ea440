package hist

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"parseq/internal/sam"
	"parseq/internal/simdata"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("chr1", 100, 0); err == nil {
		t.Error("bin size 0 accepted")
	}
	if _, err := New("chr1", -1, 10); err == nil {
		t.Error("negative refLen accepted")
	}
	h, err := New("chr1", 100, 25)
	if err != nil || len(h.Bins) != 4 {
		t.Errorf("New = %v bins, %v; want 4", len(h.Bins), err)
	}
	// Round-up bin count.
	h, _ = New("chr1", 101, 25)
	if len(h.Bins) != 5 {
		t.Errorf("bins = %d, want 5", len(h.Bins))
	}
}

func TestAddIntervalSplitsAcrossBins(t *testing.T) {
	h, _ := New("chr1", 100, 10)
	// Interval [6, 25] covers bases 6-10 (5 in bin 0), 11-20 (10 in bin 1),
	// 21-25 (5 in bin 2).
	h.AddInterval(6, 25, 1)
	want := []float64{5, 10, 5, 0, 0, 0, 0, 0, 0, 0}
	for i, v := range want {
		if h.Bins[i] != v {
			t.Errorf("bin %d = %g, want %g", i, h.Bins[i], v)
		}
	}
}

func TestAddIntervalClipsToReference(t *testing.T) {
	h, _ := New("chr1", 30, 10)
	h.AddInterval(-5, 1000, 2)
	want := []float64{20, 20, 20}
	for i, v := range want {
		if h.Bins[i] != v {
			t.Errorf("bin %d = %g, want %g", i, h.Bins[i], v)
		}
	}
	// Degenerate interval does nothing.
	h.AddInterval(10, 5, 1)
	if h.Bins[0] != 20 {
		t.Error("inverted interval mutated bins")
	}
}

// Property: total mass added equals interval length times weight when the
// interval lies inside the reference.
func TestAddIntervalMassConservation(t *testing.T) {
	f := func(begSeed, lenSeed uint16, w uint8) bool {
		h, _ := New("chr1", 10000, 25)
		beg := int32(begSeed%5000) + 1
		length := int32(lenSeed%4000) + 1
		weight := float64(w%7) + 0.5
		h.AddInterval(beg, beg+length-1, weight)
		var total float64
		for _, v := range h.Bins {
			total += v
		}
		return total == weight*float64(length)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddRecordFiltersByReference(t *testing.T) {
	h, _ := New("chr1", 1000, 10)
	r1, _ := sam.ParseRecord("a\t0\tchr1\t11\t30\t10M\t*\t0\t0\tAAAAAAAAAA\tIIIIIIIIII")
	r2, _ := sam.ParseRecord("b\t0\tchr2\t11\t30\t10M\t*\t0\t0\tAAAAAAAAAA\tIIIIIIIIII")
	r3, _ := sam.ParseRecord("c\t4\t*\t0\t0\t*\t*\t0\t0\tAAAA\tIIII")
	h.AddRecord(&r1)
	h.AddRecord(&r2)
	h.AddRecord(&r3)
	if h.Bins[1] != 10 {
		t.Errorf("bin 1 = %g, want 10", h.Bins[1])
	}
	var total float64
	for _, v := range h.Bins {
		total += v
	}
	if total != 10 {
		t.Errorf("total = %g, want 10 (other records filtered)", total)
	}
}

func TestCoverage(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(500))
	h, err := Coverage(d.Records, d.Header, "chr1", 25)
	if err != nil {
		t.Fatalf("Coverage: %v", err)
	}
	var total float64
	for _, v := range h.Bins {
		total += v
	}
	var want float64
	for i := range d.Records {
		r := &d.Records[i]
		if !r.Unmapped() && r.RName == "chr1" {
			want += float64(r.End() - r.Pos + 1)
		}
	}
	if total != want {
		t.Errorf("total coverage = %g, want %g", total, want)
	}
	if _, err := Coverage(d.Records, d.Header, "chrNope", 25); err == nil {
		t.Error("unknown reference accepted")
	}
}

func TestBEDGraphRoundTrip(t *testing.T) {
	h, _ := New("chr1", 200, 10)
	h.AddInterval(1, 50, 1)
	h.AddInterval(31, 90, 2)
	var buf bytes.Buffer
	if err := h.WriteBEDGraph(&buf); err != nil {
		t.Fatalf("WriteBEDGraph: %v", err)
	}
	if !strings.HasPrefix(buf.String(), "track type=bedGraph\n") {
		t.Errorf("missing track line: %q", buf.String())
	}
	got, err := FromBEDGraph(&buf, "chr1", 200, 10)
	if err != nil {
		t.Fatalf("FromBEDGraph: %v", err)
	}
	for i := range h.Bins {
		if got.Bins[i] != h.Bins[i] {
			t.Errorf("bin %d = %g, want %g", i, got.Bins[i], h.Bins[i])
		}
	}
}

func TestFromBEDGraphSkipsOtherChromosomes(t *testing.T) {
	in := "track type=bedGraph\nchr1\t0\t10\t1\nchr2\t0\t10\t5\n# comment\n"
	h, err := FromBEDGraph(strings.NewReader(in), "chr1", 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins[0] != 10 {
		t.Errorf("bin 0 = %g, want 10", h.Bins[0])
	}
	var total float64
	for _, v := range h.Bins {
		total += v
	}
	if total != 10 {
		t.Errorf("total = %g (chr2 leaked in?)", total)
	}
}

func TestFromBEDGraphErrors(t *testing.T) {
	for _, in := range []string{
		"chr1\t0\t10",    // too few fields
		"chr1\tx\t10\t1", // bad start
		"chr1\t0\ty\t1",  // bad end
		"chr1\t0\t10\tz", // bad value
	} {
		if _, err := FromBEDGraph(strings.NewReader(in), "chr1", 100, 10); err == nil {
			t.Errorf("FromBEDGraph(%q) succeeded", in)
		}
	}
}

func TestTSVRoundTrip(t *testing.T) {
	want := []float64{0, 1.5, -2, 3e10, 0.001}
	var buf bytes.Buffer
	if err := WriteTSV(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(tsvFile(t, buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("v[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestReadTSVSkipsCommentsAndBlanks(t *testing.T) {
	got, err := ReadTSV(tsvFile(t, "# header\n1\n\n2\n  3 \n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 3 {
		t.Errorf("got = %v", got)
	}
}

func TestReadTSVErrors(t *testing.T) {
	if _, err := ReadTSV(tsvFile(t, "")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadTSV(tsvFile(t, "abc\n")); err == nil {
		t.Error("non-numeric input accepted")
	}
	if _, err := ReadTSV(filepath.Join(t.TempDir(), "missing.tsv")); err == nil {
		t.Error("missing file accepted")
	}
}

// tsvFile writes content to a file in a test directory and returns its path.
func tsvFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "h.tsv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
