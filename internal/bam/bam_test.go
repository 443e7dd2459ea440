package bam

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"parseq/internal/bgzf"
	"parseq/internal/sam"
)

func testHeader() *sam.Header {
	h := sam.NewHeader(
		sam.Reference{Name: "chr1", Length: 1000000},
		sam.Reference{Name: "chr2", Length: 500000},
	)
	h.SortOrder = sam.SortCoordinate
	return h
}

func mustParse(t testing.TB, line string) sam.Record {
	t.Helper()
	r, err := sam.ParseRecord(line)
	if err != nil {
		t.Fatalf("ParseRecord(%q): %v", line, err)
	}
	return r
}

var testLines = []string{
	"r001\t99\tchr1\t7\t30\t8M2I4M1D3M\t=\t37\t39\tTTAGATAAAGGATACTG\tIIIIIIIIIIIIIIIII\tNM:i:2\tRG:Z:grp1",
	"r002\t0\tchr2\t100\t60\t10M\t*\t0\t0\tAAAAACCCCC\tJJJJJJJJJJ",
	"r003\t16\tchr1\t500\t37\t5S12M\t*\t0\t0\tGGGGGTTTTTCCCCCAA\tABCDEFGHIJKLMNOPQ\tAS:f:-3.5\tXA:A:x",
	"r004\t4\t*\t0\t0\t*\t*\t0\t0\tACGTN\t*",
	"r005\t147\tchr1\t40\t29\t9M\t=\t7\t-42\tCGATCGATC\t*\tZB:B:c,1,-2,3\tZS:B:S,100,200\tZF:B:f,0.5,1.5\tMD:Z:9\tBQ:H:00FF",
}

func TestRecordCodecRoundTrip(t *testing.T) {
	h := testHeader()
	for _, line := range testLines {
		rec := mustParse(t, line)
		body, err := EncodeRecord(nil, &rec, h)
		if err != nil {
			t.Fatalf("EncodeRecord(%q): %v", line, err)
		}
		var got sam.Record
		if err := DecodeRecord(body[4:], &got, h); err != nil {
			t.Fatalf("DecodeRecord(%q): %v", line, err)
		}
		if got.String() != line {
			t.Errorf("round trip:\n got %q\nwant %q", got.String(), line)
		}
	}
}

func TestEncodeRejectsUnknownReference(t *testing.T) {
	h := testHeader()
	rec := mustParse(t, testLines[0])
	rec.RName = "chrZ"
	if _, err := EncodeRecord(nil, &rec, h); err == nil {
		t.Error("EncodeRecord with unknown reference succeeded")
	}
}

// TestEncodeRejectsUnknownMateReference: an RNEXT the header lacks is
// refused as an unknown RNAME is, not written as next_refID -1.
func TestEncodeRejectsUnknownMateReference(t *testing.T) {
	h := sam.NewHeader(sam.Reference{Name: "chr1", Length: 1000})
	rec := mustParse(t, "r1\t99\tchr1\t5\t30\t4M\tchrZ\t9\t0\tACGT\tIIII")
	if _, err := EncodeRecord(nil, &rec, h); !errors.Is(err, ErrInvalidRecord) || !strings.Contains(err.Error(), "chrZ") {
		t.Errorf("EncodeRecord with mate reference chrZ: %v, want ErrInvalidRecord naming it", err)
	}
}

// TestReaderRejectsStarReference: a binary reference dictionary naming
// a reference "*" (which every record on it would read as unplaced) is
// an invalid header, as the same @SQ line is in SAM text.
func TestReaderRejectsStarReference(t *testing.T) {
	var buf bytes.Buffer
	bg := bgzf.NewWriter(&buf)
	hdr := append([]byte(nil), Magic...)
	hdr = appendInt32(hdr, 0) // no header text: the dictionary alone
	hdr = appendInt32(hdr, 1)
	hdr = appendInt32(hdr, 2)
	hdr = append(hdr, '*', 0)
	hdr = appendInt32(hdr, 100)
	if _, err := bg.Write(hdr); err != nil {
		t.Fatal(err)
	}
	if err := bg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(&buf); !errors.Is(err, sam.ErrInvalidHeader) {
		t.Errorf("NewReader over a reference named *: %v, want sam.ErrInvalidHeader", err)
	}
}

func TestEncodeRejectsLongQName(t *testing.T) {
	h := testHeader()
	rec := mustParse(t, testLines[1])
	rec.QName = strings.Repeat("q", 300)
	if _, err := EncodeRecord(nil, &rec, h); err == nil {
		t.Error("EncodeRecord with 300-byte QNAME succeeded")
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	h := testHeader()
	rec := mustParse(t, testLines[0])
	body, err := EncodeRecord(nil, &rec, h)
	if err != nil {
		t.Fatal(err)
	}
	var got sam.Record
	for _, cut := range []int{4, 20, 36, len(body) - 1} {
		if err := DecodeRecord(body[4:cut], &got, h); err == nil {
			t.Errorf("DecodeRecord(body[:%d]) succeeded", cut)
		}
	}
}

func writeBAM(t testing.TB, h *sam.Header, recs []sam.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestFileRoundTrip(t *testing.T) {
	h := testHeader()
	var recs []sam.Record
	for _, line := range testLines {
		recs = append(recs, mustParse(t, line))
	}
	raw := writeBAM(t, h, recs)

	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if got := len(r.Header().Refs); got != 2 {
		t.Fatalf("header refs = %d, want 2", got)
	}
	if r.Header().SortOrder != sam.SortCoordinate {
		t.Errorf("SortOrder = %q", r.Header().SortOrder)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != len(testLines) {
		t.Fatalf("records = %d, want %d", len(got), len(testLines))
	}
	for i, line := range testLines {
		if got[i].String() != line {
			t.Errorf("record %d:\n got %q\nwant %q", i, got[i].String(), line)
		}
	}
}

func TestEmptyFileRoundTrip(t *testing.T) {
	raw := writeBAM(t, testHeader(), nil)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil || len(recs) != 0 {
		t.Errorf("ReadAll = %d, %v", len(recs), err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a bam file at all"))); err == nil {
		t.Error("NewReader on garbage succeeded")
	}
	// Valid BGZF but wrong magic.
	var buf bytes.Buffer
	bw := bgzf.NewWriter(&buf)
	bw.Write([]byte("XXXX0000"))
	bw.Close()
	if _, err := NewReader(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("NewReader on non-BAM BGZF succeeded")
	}
}

func TestReg2Bin(t *testing.T) {
	cases := []struct{ beg, end, want int }{
		{0, 1, 4681},
		{0, 1 << 14, 4681},
		{1 << 14, 1<<14 + 1, 4682},
		{0, 1<<14 + 1, 585},
		{0, 1 << 17, 585},
		{0, 1 << 20, 73},
		{0, 1 << 23, 9},
		{0, 1 << 26, 1},
		{0, 1 << 29, 0},
		{1 << 26, 1<<26 + 100, 4681 + (1<<26)>>14},
	}
	for _, tc := range cases {
		if got := reg2bin(tc.beg, tc.end); got != tc.want {
			t.Errorf("reg2bin(%d, %d) = %d, want %d", tc.beg, tc.end, got, tc.want)
		}
	}
}

// Property: reg2bins(beg,end) always contains reg2bin(b,e) for any
// sub-interval [b,e) of [beg,end) — the query must never miss a bin an
// overlapping alignment could be filed under.
func TestReg2BinsCoversContainedIntervals(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		beg := rng.Intn(1 << 28)
		end := beg + 1 + rng.Intn(1<<16)
		bins := reg2bins(nil, beg, end)
		inBins := make(map[int]bool, len(bins))
		for _, b := range bins {
			inBins[b] = true
		}
		for trial := 0; trial < 20; trial++ {
			b := beg + rng.Intn(end-beg)
			e := b + 1 + rng.Intn(end-b)
			if !inBins[reg2bin(b, e)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: any alignment overlapping the query region is filed in a bin
// reg2bins returns, even when the alignment extends beyond the region.
func TestReg2BinsCoversOverlappingAlignments(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		qb := rng.Intn(1 << 27)
		qe := qb + 1 + rng.Intn(1<<18)
		bins := reg2bins(nil, qb, qe)
		inBins := make(map[int]bool, len(bins))
		for _, b := range bins {
			inBins[b] = true
		}
		for trial := 0; trial < 20; trial++ {
			// Alignment overlapping the query.
			ab := qb - rng.Intn(1<<14)
			if ab < 0 {
				ab = 0
			}
			ae := qb + 1 + rng.Intn(1<<15)
			if !inBins[reg2bin(ab, ae)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func makeSortedBAM(t testing.TB, n int) ([]byte, *Index, *sam.Header) {
	t.Helper()
	h := testHeader()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	idx := NewIndex(len(h.Refs))
	rng := rand.New(rand.NewSource(42))
	pos := int32(1)
	for i := 0; i < n; i++ {
		pos += int32(rng.Intn(50))
		rec := sam.Record{
			QName: "q", Flag: 0, RName: "chr1", Pos: pos, MapQ: 60,
			Cigar: sam.Cigar{sam.NewCigarOp(sam.CigarMatch, 90)},
			RNext: "*", Seq: strings.Repeat("A", 90), Qual: strings.Repeat("I", 90),
		}
		beg := w.Offset()
		if err := w.Write(&rec); err != nil {
			t.Fatal(err)
		}
		if err := idx.Add(0, int(rec.Pos-1), int(rec.End()), beg, w.Offset()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), idx, h
}

func TestIndexQueryFindsAllOverlaps(t *testing.T) {
	raw, idx, _ := makeSortedBAM(t, 2000)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	all, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	queryBeg, queryEnd := 10000, 20000 // zero-based half-open
	want := 0
	for i := range all {
		if int(all[i].Pos-1) < queryEnd && int(all[i].End()) > queryBeg {
			want++
		}
	}
	if want == 0 {
		t.Fatal("test query region matches no records; adjust the generator")
	}

	got := 0
	for _, chunk := range idx.Query(0, queryBeg, queryEnd) {
		if err := r.Seek(chunk.Beg); err != nil {
			t.Fatalf("Seek: %v", err)
		}
		var rec sam.Record
		for r.Offset() < chunk.End {
			if err := r.ReadInto(&rec); err != nil {
				t.Fatalf("ReadInto: %v", err)
			}
			if int(rec.Pos-1) < queryEnd && int(rec.End()) > queryBeg {
				got++
			}
		}
	}
	if got != want {
		t.Errorf("index query found %d overlapping records, want %d", got, want)
	}
}

func TestIndexSerializationRoundTrip(t *testing.T) {
	_, idx, _ := makeSortedBAM(t, 500)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	if got.NumRefs() != idx.NumRefs() {
		t.Fatalf("NumRefs = %d, want %d", got.NumRefs(), idx.NumRefs())
	}
	for _, q := range [][2]int{{0, 1000}, {5000, 15000}, {0, 1 << 20}} {
		a := idx.Query(0, q[0], q[1])
		b := got.Query(0, q[0], q[1])
		if len(a) != len(b) {
			t.Errorf("Query(%v): %d vs %d chunks", q, len(a), len(b))
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("Query(%v)[%d]: %v vs %v", q, i, a[i], b[i])
			}
		}
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	if _, err := ReadIndex(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("ReadIndex on garbage succeeded")
	}
	if _, err := ReadIndex(bytes.NewReader([]byte("BAI\x01\xff\xff\xff\xff"))); err == nil {
		t.Error("ReadIndex with negative refs succeeded")
	}
}

func TestIndexQueryEdgeCases(t *testing.T) {
	idx := NewIndex(1)
	if got := idx.Query(-1, 0, 10); got != nil {
		t.Errorf("Query(refID=-1) = %v", got)
	}
	if got := idx.Query(5, 0, 10); got != nil {
		t.Errorf("Query(refID=5) = %v", got)
	}
	if got := idx.Query(0, 10, 10); got != nil {
		t.Errorf("Query(empty interval) = %v", got)
	}
	if err := idx.Add(-1, 0, 10, 0, 1); err != nil {
		t.Errorf("Add(refID=-1) = %v, want nil (skip)", err)
	}
	if err := idx.Add(3, 0, 10, 0, 1); err == nil {
		t.Error("Add(refID out of range) succeeded")
	}
}

func TestSeekAndReread(t *testing.T) {
	h := testHeader()
	var recs []sam.Record
	for _, line := range testLines {
		recs = append(recs, mustParse(t, line))
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []bgzf.VOffset
	for i := range recs {
		offsets = append(offsets, w.Offset())
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		if err := r.Seek(offsets[i]); err != nil {
			t.Fatalf("Seek(%v): %v", offsets[i], err)
		}
		var got sam.Record
		if err := r.ReadInto(&got); err != nil {
			t.Fatalf("Read after seek: %v", err)
		}
		if got.String() != testLines[i] {
			t.Errorf("record %d after seek mismatch", i)
		}
	}
}

// Property: encode→decode is the identity over randomized records.
func TestCodecProperty(t *testing.T) {
	h := testHeader()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		bases := "ACGTN"
		seq := make([]byte, n)
		qual := make([]byte, n)
		for i := range seq {
			seq[i] = bases[rng.Intn(5)]
			qual[i] = byte(33 + rng.Intn(93))
		}
		rec := sam.Record{
			QName: "q" + strings.Repeat("n", rng.Intn(20)),
			Flag:  sam.Flag(rng.Intn(1 << 12)),
			RName: "chr1",
			Pos:   int32(rng.Intn(1<<20)) + 1,
			MapQ:  uint8(rng.Intn(255)),
			Cigar: sam.Cigar{sam.NewCigarOp(sam.CigarMatch, n)},
			RNext: "*",
			TLen:  int32(rng.Intn(1<<16)) - 1<<15,
			Seq:   string(seq),
			Qual:  string(qual),
			Tags: []sam.Tag{
				sam.IntTag("NM", int64(rng.Intn(1<<30))-1<<29),
				sam.StringTag("RG", "grp"),
			},
		}
		body, err := EncodeRecord(nil, &rec, h)
		if err != nil {
			return false
		}
		var got sam.Record
		if err := DecodeRecord(body[4:], &got, h); err != nil {
			return false
		}
		return got.String() == rec.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
