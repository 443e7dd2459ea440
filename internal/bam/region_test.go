package bam

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"parseq/internal/sam"
)

// ReadInto decodes the next overlapping record into rec, or returns
// io.EOF when the region is exhausted.
func (rr *RegionReader) ReadInto(rec *sam.Record) error {
	body, err := rr.NextBody()
	if err != nil {
		return err
	}
	if err := DecodeRecord(body, rec, rr.br.Header()); err != nil {
		rr.err = err
		return err
	}
	return nil
}

// CountRegion returns how many records overlap the region — the cheap
// index-backed census operation. It walks record bodies without
// decoding them, so the loop allocates nothing per record.
func CountRegion(br *Reader, idx *Index, refName string, beg, end int) (int, error) {
	rr, err := NewRegionReader(br, idx, refName, beg, end)
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		if _, err := rr.NextBody(); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, err
		}
		n++
	}
}

// genSorted builds a coordinate-sorted multi-chromosome record set with
// varied spans, plus a trailing unmapped block, mirroring real BAM files.
func genSorted(seed int64, n int, h *sam.Header) []sam.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]sam.Record, 0, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.02 {
			recs = append(recs, sam.Record{
				QName: fmt.Sprintf("u%06d", i), Flag: sam.FlagUnmapped,
				RName: "*", RNext: "*", Seq: "ACGT", Qual: "IIII",
			})
			continue
		}
		ref := h.Refs[rng.Intn(len(h.Refs))]
		span := 30 + rng.Intn(200)
		maxPos := ref.Length - span
		if maxPos < 1 {
			maxPos = 1
		}
		recs = append(recs, sam.Record{
			QName: fmt.Sprintf("r%06d", i),
			RName: ref.Name,
			Pos:   int32(1 + rng.Intn(maxPos)),
			MapQ:  60,
			Cigar: sam.Cigar{sam.NewCigarOp(sam.CigarMatch, span)},
			RNext: "*",
			Seq:   strings.Repeat("A", span),
			Qual:  strings.Repeat("I", span),
		})
	}
	sort.SliceStable(recs, func(i, j int) bool {
		ri, rj := h.RefID(recs[i].RName), h.RefID(recs[j].RName)
		if ri != rj {
			if ri < 0 {
				return false
			}
			if rj < 0 {
				return true
			}
			return ri < rj
		}
		return recs[i].Pos < recs[j].Pos
	})
	return recs
}

// makeIndexedDataset writes a coordinate-sorted multi-chromosome BAM and
// builds its index from the file, as a user would.
func makeIndexedDataset(t testing.TB, n int) ([]byte, *Index, *sam.Header, []sam.Record) {
	t.Helper()
	h := sam.NewHeader(
		sam.Reference{Name: "chr1", Length: 197195},
		sam.Reference{Name: "chr2", Length: 181748},
		sam.Reference{Name: "chrX", Length: 166650},
		sam.Reference{Name: "chrY", Length: 15902},
	)
	h.SortOrder = sam.SortCoordinate
	recs := genSorted(int64(n), n, h)
	raw := writeBAM(t, h, recs)
	idx, err := BuildFileIndex(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("BuildFileIndex: %v", err)
	}
	return raw, idx, h, recs
}

func TestBuildFileIndexAndRegionReader(t *testing.T) {
	raw, idx, _, recs := makeIndexedDataset(t, 1500)
	br, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	for _, q := range []struct {
		ref      string
		beg, end int
	}{
		{"chr1", 0, 50000},
		{"chr1", 100000, 197195},
		{"chr2", 0, 181748},
		{"chrX", 30000, 90000},
		{"chrY", 0, 15902},
	} {
		want := map[string]int{}
		for i := range recs {
			r := &recs[i]
			if r.Unmapped() || r.RName != q.ref {
				continue
			}
			if int(r.Pos-1) < q.end && int(r.End()) > q.beg {
				want[r.String()]++
			}
		}
		rr, err := NewRegionReader(br, idx, q.ref, q.beg, q.end)
		if err != nil {
			t.Fatalf("NewRegionReader(%s:%d-%d): %v", q.ref, q.beg, q.end, err)
		}
		got := 0
		var rec sam.Record
		for {
			err := rr.ReadInto(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("ReadInto: %v", err)
			}
			if want[rec.String()] == 0 {
				t.Fatalf("region %s:%d-%d returned non-overlapping record %s:%d",
					q.ref, q.beg, q.end, rec.RName, rec.Pos)
			}
			want[rec.String()]--
			got++
		}
		missing := 0
		for _, n := range want {
			missing += n
		}
		if missing != 0 {
			t.Errorf("region %s:%d-%d missed %d records (found %d)",
				q.ref, q.beg, q.end, missing, got)
		}
		if got == 0 && q.ref != "chrY" {
			t.Errorf("region %s:%d-%d found nothing; generator too sparse?", q.ref, q.beg, q.end)
		}
	}
}

func TestCountRegion(t *testing.T) {
	raw, idx, _, recs := makeIndexedDataset(t, 800)
	br, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := range recs {
		r := &recs[i]
		if !r.Unmapped() && r.RName == "chr1" {
			want++
		}
	}
	got, err := CountRegion(br, idx, "chr1", 0, 197195)
	if err != nil {
		t.Fatalf("CountRegion: %v", err)
	}
	if got != want {
		t.Errorf("CountRegion = %d, want %d", got, want)
	}
}

func TestRegionReaderUnknownReference(t *testing.T) {
	raw, idx, _, _ := makeIndexedDataset(t, 50)
	br, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegionReader(br, idx, "chrNope", 0, 100); err == nil {
		t.Error("unknown reference accepted")
	}
}

func TestRegionReaderOnlyOverlapping(t *testing.T) {
	raw, idx, _, _ := makeIndexedDataset(t, 400)
	br, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRegionReader(br, idx, "chrY", 8000, 8100)
	if err != nil {
		t.Fatal(err)
	}
	var rec sam.Record
	for {
		err := rr.ReadInto(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if int(rec.Pos-1) >= 8100 || int(rec.End()) <= 8000 {
			t.Fatalf("non-overlapping record returned: %s:%d-%d", rec.RName, rec.Pos, rec.End())
		}
	}
}

func TestBuildFileIndexRejectsUnsorted(t *testing.T) {
	h := sam.NewHeader(sam.Reference{Name: "chr1", Length: 100000})
	recs := []sam.Record{
		{QName: "a", RName: "chr1", Pos: 500, MapQ: 60,
			Cigar: sam.Cigar{sam.NewCigarOp(sam.CigarMatch, 4)},
			RNext: "*", Seq: "ACGT", Qual: "IIII"},
		{QName: "b", RName: "chr1", Pos: 100, MapQ: 60,
			Cigar: sam.Cigar{sam.NewCigarOp(sam.CigarMatch, 4)},
			RNext: "*", Seq: "ACGT", Qual: "IIII"},
	}
	raw := writeBAM(t, h, recs)
	if _, err := BuildFileIndex(bytes.NewReader(raw)); err == nil {
		t.Error("unsorted input accepted")
	}
}

func TestWriteIndexFileRoundTrip(t *testing.T) {
	raw, want, _, _ := makeIndexedDataset(t, 300)
	var ixBuf bytes.Buffer
	rs := bytes.NewReader(raw)
	if err := WriteIndexFile(rs, &ixBuf); err != nil {
		t.Fatalf("WriteIndexFile: %v", err)
	}
	if pos, _ := rs.Seek(0, io.SeekCurrent); pos != 0 {
		t.Errorf("stream position = %d after WriteIndexFile", pos)
	}
	got, err := ReadIndex(&ixBuf)
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	for _, q := range [][2]int{{0, 10000}, {50000, 150000}} {
		a := want.Query(0, q[0], q[1])
		b := got.Query(0, q[0], q[1])
		if len(a) != len(b) {
			t.Errorf("Query(%v): %d vs %d chunks", q, len(a), len(b))
		}
	}
}

func TestBodySpan(t *testing.T) {
	h := testHeader()
	rec := mustParse(t, "r1\t0\tchr1\t101\t30\t10M5D20M\t*\t0\t0\t"+
		"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAA\tIIIIIIIIIIIIIIIIIIIIIIIIIIIIII")
	body, err := EncodeRecord(nil, &rec, h)
	if err != nil {
		t.Fatal(err)
	}
	refID, beg, end := BodySpan(body[4:])
	if refID != 0 {
		t.Errorf("refID = %d", refID)
	}
	if beg != 100 {
		t.Errorf("beg = %d, want 100", beg)
	}
	if end != 100+35 {
		t.Errorf("end = %d, want %d", end, 135)
	}
	// CIGAR-less record spans one base.
	un := mustParse(t, "r2\t4\t*\t0\t0\t*\t*\t0\t0\tACGT\tIIII")
	body, err = EncodeRecord(nil, &un, h)
	if err != nil {
		t.Fatal(err)
	}
	refID, beg, end = BodySpan(body[4:])
	if refID != -1 || end != beg+1 {
		t.Errorf("unmapped span = %d [%d, %d)", refID, beg, end)
	}
}
