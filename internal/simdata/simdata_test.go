package simdata

import (
	"bytes"
	"testing"

	"parseq/internal/bam"
	"parseq/internal/sam"
)

func TestMouseChromosomes(t *testing.T) {
	refs := MouseChromosomes(1000)
	if len(refs) != 21 {
		t.Fatalf("chromosomes = %d, want 21", len(refs))
	}
	if refs[0].Name != "chr1" || refs[0].Length != 197195 {
		t.Errorf("chr1 = %+v", refs[0])
	}
	if refs[20].Name != "chrY" {
		t.Errorf("last = %+v", refs[20])
	}
	// Scale clamping.
	if got := MouseChromosomes(0)[0].Length; got != 197195432 {
		t.Errorf("unscaled chr1 = %d", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig(100))
	b := Generate(DefaultConfig(100))
	if len(a.Records) != 100 || len(b.Records) != 100 {
		t.Fatalf("records = %d/%d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i].String() != b.Records[i].String() {
			t.Fatalf("record %d differs between identical-seed runs", i)
		}
	}
}

func TestGenerateDifferentSeeds(t *testing.T) {
	cfg := DefaultConfig(50)
	a := Generate(cfg)
	cfg.Seed = 2
	b := Generate(cfg)
	same := 0
	for i := range a.Records {
		if a.Records[i].String() == b.Records[i].String() {
			same++
		}
	}
	if same == len(a.Records) {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGenerateRecordsAreValid(t *testing.T) {
	d := Generate(DefaultConfig(500))
	for i := range d.Records {
		r := &d.Records[i]
		// Every record must survive a SAM text round trip.
		reparsed, err := sam.ParseRecord(r.String())
		if err != nil {
			t.Fatalf("record %d invalid: %v", i, err)
		}
		if reparsed.String() != r.String() {
			t.Fatalf("record %d not canonical", i)
		}
		if !r.Unmapped() {
			if got := r.Cigar.QueryLength(); got != len(r.Seq) {
				t.Fatalf("record %d CIGAR consumes %d bases, SEQ has %d", i, got, len(r.Seq))
			}
			if d.Header.RefID(r.RName) < 0 {
				t.Fatalf("record %d on unknown reference %q", i, r.RName)
			}
			ref := d.Header.RefByID(d.Header.RefID(r.RName))
			if int(r.Pos) > ref.Length {
				t.Fatalf("record %d at %d beyond %s length %d", i, r.Pos, ref.Name, ref.Length)
			}
		}
		if len(r.Seq) != 90 || len(r.Qual) != 90 {
			t.Fatalf("record %d SEQ/QUAL = %d/%d, want 90", i, len(r.Seq), len(r.Qual))
		}
	}
}

func TestGenerateSortedOrder(t *testing.T) {
	d := Generate(DefaultConfig(300))
	lastRef, lastPos := -2, int32(0)
	for i := range d.Records {
		r := &d.Records[i]
		ref := d.Header.RefID(r.RName)
		if ref < 0 {
			lastRef = 1 << 30 // unmapped sort last
			continue
		}
		if lastRef == 1<<30 {
			t.Fatalf("mapped record %d after unmapped block", i)
		}
		if ref < lastRef || (ref == lastRef && r.Pos < lastPos) {
			t.Fatalf("record %d out of order: %s:%d after ref %d pos %d", i, r.RName, r.Pos, lastRef, lastPos)
		}
		lastRef, lastPos = ref, r.Pos
	}
}

func TestGenerateUnsorted(t *testing.T) {
	cfg := DefaultConfig(200)
	cfg.Sorted = false
	d := Generate(cfg)
	if d.Header.SortOrder != sam.SortUnsorted {
		t.Errorf("SortOrder = %q", d.Header.SortOrder)
	}
}

func TestGenerateFractions(t *testing.T) {
	cfg := DefaultConfig(2000)
	d := Generate(cfg)
	unmapped, paired := 0, 0
	for i := range d.Records {
		if d.Records[i].Unmapped() {
			unmapped++
		}
		if d.Records[i].Flag.Paired() {
			paired++
		}
	}
	if unmapped == 0 || unmapped > 100 {
		t.Errorf("unmapped = %d of 2000, want ≈20", unmapped)
	}
	if paired < 1700 {
		t.Errorf("paired = %d of 2000, want ≈1900", paired)
	}
}

func TestWriteSAMReadable(t *testing.T) {
	d := Generate(DefaultConfig(100))
	var buf bytes.Buffer
	if err := d.WriteSAM(&buf); err != nil {
		t.Fatalf("WriteSAM: %v", err)
	}
	r, err := sam.NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(recs) != 100 {
		t.Fatalf("records = %d", len(recs))
	}
	if len(r.Header().Refs) != len(d.Header.Refs) {
		t.Errorf("refs = %d, want %d", len(r.Header().Refs), len(d.Header.Refs))
	}
}

func TestWriteBAMReadable(t *testing.T) {
	d := Generate(DefaultConfig(100))
	var buf bytes.Buffer
	if err := d.WriteBAM(&buf); err != nil {
		t.Fatalf("WriteBAM: %v", err)
	}
	r, err := bam.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(recs) != 100 {
		t.Fatalf("records = %d", len(recs))
	}
	for i := range recs {
		if recs[i].String() != d.Records[i].String() {
			t.Fatalf("BAM record %d differs from source", i)
		}
	}
}

func TestHistogramShape(t *testing.T) {
	h := Histogram(10000, 7)
	if len(h) != 10000 {
		t.Fatalf("bins = %d", len(h))
	}
	var sum, max float64
	for _, v := range h {
		if v < 0 {
			t.Fatal("negative histogram value")
		}
		sum += v
		if v > max {
			max = v
		}
	}
	mean := sum / float64(len(h))
	if mean < 3 || mean > 10 {
		t.Errorf("mean = %g, want ≈5-6", mean)
	}
	if max < 25 {
		t.Errorf("max = %g, want a peak ≥ 25", max)
	}
}

func TestHistogramDeterministic(t *testing.T) {
	a := Histogram(1000, 3)
	b := Histogram(1000, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bin %d differs", i)
		}
	}
}

func TestSimulations(t *testing.T) {
	sims := Simulations(5, 400, 11)
	if len(sims) != 5 {
		t.Fatalf("sims = %d", len(sims))
	}
	for i, s := range sims {
		if len(s) != 400 {
			t.Fatalf("sim %d bins = %d", i, len(s))
		}
		for _, v := range s {
			if v < 0 {
				t.Fatalf("sim %d has negative value", i)
			}
		}
	}
	// Different simulations differ.
	same := 0
	for i := range sims[0] {
		if sims[0][i] == sims[1][i] {
			same++
		}
	}
	if same == len(sims[0]) {
		t.Error("simulations 0 and 1 identical")
	}
}
