package bamx

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"parseq/internal/bam"
	"parseq/internal/sam"
	"parseq/internal/simdata"
)

func dataset(t testing.TB, n int) *simdata.Dataset {
	t.Helper()
	return simdata.Generate(simdata.DefaultConfig(n))
}

func buildBAMX(t testing.TB, d *simdata.Dataset) (*File, *Index) {
	t.Helper()
	var buf bytes.Buffer
	idx, err := BuildFromRecords(&buf, d.Header, d.Records)
	if err != nil {
		t.Fatalf("BuildFromRecords: %v", err)
	}
	f, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return f, idx
}

func TestBuildAndOpen(t *testing.T) {
	d := dataset(t, 200)
	f, idx := buildBAMX(t, d)
	if f.NumRecords() != 200 {
		t.Fatalf("NumRecords = %d, want 200", f.NumRecords())
	}
	if got := len(f.Header().Refs); got != len(d.Header.Refs) {
		t.Errorf("header refs = %d, want %d", got, len(d.Header.Refs))
	}
	mapped := 0
	for i := range d.Records {
		if !d.Records[i].Unmapped() {
			mapped++
		}
	}
	if idx.Len() != mapped {
		t.Errorf("index entries = %d, want %d mapped", idx.Len(), mapped)
	}
	if f.Stride() != f.Caps().Stride() {
		t.Errorf("Stride inconsistent: %d vs %d", f.Stride(), f.Caps().Stride())
	}
}

func TestRandomAccessRoundTrip(t *testing.T) {
	d := dataset(t, 150)
	f, _ := buildBAMX(t, d)
	var rec sam.Record
	// Access out of order to prove random access.
	for _, i := range []int64{149, 0, 75, 3, 148, 1} {
		if err := f.ReadRecord(i, &rec); err != nil {
			t.Fatalf("ReadRecord(%d): %v", i, err)
		}
		if rec.String() != d.Records[i].String() {
			t.Errorf("record %d:\n got %q\nwant %q", i, rec.String(), d.Records[i].String())
		}
	}
}

func TestReadRecordOutOfRange(t *testing.T) {
	d := dataset(t, 10)
	f, _ := buildBAMX(t, d)
	var rec sam.Record
	if err := f.ReadRecord(10, &rec); err == nil {
		t.Error("ReadRecord(10) of 10 succeeded")
	}
	if err := f.ReadRecord(-1, &rec); err == nil {
		t.Error("ReadRecord(-1) succeeded")
	}
}

func TestReadRawBufferSize(t *testing.T) {
	d := dataset(t, 5)
	f, _ := buildBAMX(t, d)
	if err := f.ReadRaw(0, make([]byte, 3)); err == nil {
		t.Error("ReadRaw with short buffer succeeded")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	if _, err := Open(bytes.NewReader([]byte("garbage here")), 12); !errors.Is(err, ErrNotBAMX) {
		t.Errorf("err = %v, want ErrNotBAMX", err)
	}
}

func TestOpenRejectsTruncatedData(t *testing.T) {
	d := dataset(t, 20)
	var buf bytes.Buffer
	if _, err := BuildFromRecords(&buf, d.Header, d.Records); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Open(bytes.NewReader(raw[:len(raw)-7]), int64(len(raw)-7)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestWriterRejectsOversizedField(t *testing.T) {
	h := sam.NewHeader(sam.Reference{Name: "chr1", Length: 10000})
	caps := Caps{QName: 4, CigarOps: 1, Seq: 8, Aux: 0}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h, caps)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sam.ParseRecord("toolongname\t0\tchr1\t5\t30\t4M\t*\t0\t0\tACGT\tIIII")
	if err != nil {
		t.Fatal(err)
	}
	body, err := bam.EncodeRecord(nil, &rec, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEncoded(body[4:]); !errors.Is(err, ErrFieldSize) {
		t.Errorf("err = %v, want ErrFieldSize", err)
	}
}

func TestNewWriterRejectsDegenerateCaps(t *testing.T) {
	h := sam.NewHeader()
	if _, err := NewWriter(io.Discard, h, Caps{}); err == nil {
		t.Error("NewWriter with zero caps succeeded")
	}
}

func TestHeaderSizeMatchesLayout(t *testing.T) {
	d := dataset(t, 7)
	var buf bytes.Buffer
	if _, err := BuildFromRecords(&buf, d.Header, d.Records); err != nil {
		t.Fatal(err)
	}
	f, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	wantData := int64(buf.Len()) - 7*int64(f.Stride())
	if got := HeaderSize(d.Header); got != wantData {
		t.Errorf("HeaderSize = %d, want %d", got, wantData)
	}
}

// TestShortBodyIsCorrupt: a body shorter than the 32-byte fixed section,
// or than the lengths it declares, is ErrCorrupt to the caps pass and to
// the padded writer alike, never an out-of-range slice.
func TestShortBodyIsCorrupt(t *testing.T) {
	d := dataset(t, 10)
	good, err := bam.EncodeRecord(nil, &d.Records[0], d.Header)
	if err != nil {
		t.Fatal(err)
	}
	lying := append([]byte(nil), good[4:37]...)
	for name, body := range map[string][]byte{"empty": {}, "10 bytes": good[4:14], "31 bytes": good[4:35], "lying lengths": lying} {
		var caps Caps
		if err := caps.Observe(body); !errors.Is(err, ErrCorrupt) || caps != (Caps{}) {
			t.Errorf("%s: Observe = %v, caps %+v; want ErrCorrupt and no change", name, err, caps)
		}
		sent := false
		_, err := WriteBodies(io.Discard, d.Header, Caps{QName: 64, CigarOps: 8, Seq: 256, Aux: 64}, func() ([]byte, error) {
			if sent {
				return nil, io.EOF
			}
			sent = true
			return body, nil
		})
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: WriteBodies = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestIndexRegionSelectsByStartPosition(t *testing.T) {
	d := dataset(t, 400)
	f, idx := buildBAMX(t, d)
	refID := int32(0)
	begPos, endPos := int32(1), int32(50000)

	lo, hi := idx.Region(refID, begPos, endPos)
	got := map[string]bool{}
	var rec sam.Record
	for _, e := range idx.Entries()[lo:hi] {
		if err := f.ReadRecord(e.Index, &rec); err != nil {
			t.Fatal(err)
		}
		if d.Header.RefID(rec.RName) != int(refID) || rec.Pos < begPos || rec.Pos > endPos {
			t.Fatalf("entry %+v resolves outside region: %s:%d", e, rec.RName, rec.Pos)
		}
		got[rec.String()] = true
	}
	want := 0
	for i := range d.Records {
		r := &d.Records[i]
		if !r.Unmapped() && d.Header.RefID(r.RName) == int(refID) && r.Pos >= begPos && r.Pos <= endPos {
			want++
			if !got[r.String()] {
				t.Errorf("record %s:%d missing from region query", r.RName, r.Pos)
			}
		}
	}
	if len(got) != want {
		t.Errorf("region query found %d records, want %d", len(got), want)
	}
}

func TestIndexRegionEmptyAndEdges(t *testing.T) {
	idx := NewIndex([]Entry{
		{RefID: 0, Pos: 10, Index: 0},
		{RefID: 0, Pos: 20, Index: 1},
		{RefID: 1, Pos: 5, Index: 2},
	})
	if lo, hi := idx.Region(0, 10, 20); lo != 0 || hi != 2 {
		t.Errorf("Region(0,10,20) = %d,%d", lo, hi)
	}
	if lo, hi := idx.Region(0, 11, 19); lo != hi {
		t.Errorf("Region(0,11,19) nonempty: %d,%d", lo, hi)
	}
	if lo, hi := idx.Region(1, 1, 100); lo != 2 || hi != 3 {
		t.Errorf("Region(1,...) = %d,%d", lo, hi)
	}
	if lo, hi := idx.Region(2, 1, 100); lo != hi {
		t.Errorf("Region(missing ref) = %d,%d", lo, hi)
	}
	if lo, hi := idx.RefRange(0); lo != 0 || hi != 2 {
		t.Errorf("RefRange(0) = %d,%d", lo, hi)
	}
}

func TestIndexSerialization(t *testing.T) {
	d := dataset(t, 100)
	_, idx := buildBAMX(t, d)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	if got.Len() != idx.Len() {
		t.Fatalf("entries = %d, want %d", got.Len(), idx.Len())
	}
	for i := range got.Entries() {
		if got.Entries()[i] != idx.Entries()[i] {
			t.Errorf("entry %d differs", i)
		}
	}
}

func TestReadIndexRejectsBadInput(t *testing.T) {
	if _, err := ReadIndex(bytes.NewReader([]byte("BAD"))); err == nil {
		t.Error("garbage accepted")
	}
	// Truncated entries.
	var buf bytes.Buffer
	idx := NewIndex([]Entry{{RefID: 0, Pos: 1, Index: 0}})
	idx.WriteTo(&buf)
	raw := buf.Bytes()
	if _, err := ReadIndex(bytes.NewReader(raw[:len(raw)-4])); err == nil {
		t.Error("truncated BAIX accepted")
	}
	// Out-of-order entries.
	bad := []byte{'B', 'A', 'I', 'X', 1}
	bad = append(bad, 2, 0, 0, 0, 0, 0, 0, 0)
	entry := func(ref, pos int32, idx int64) []byte {
		var e [16]byte
		e[0] = byte(ref)
		e[4] = byte(pos)
		e[8] = byte(idx)
		return e[:]
	}
	bad = append(bad, entry(0, 50, 0)...)
	bad = append(bad, entry(0, 10, 1)...)
	if _, err := ReadIndex(bytes.NewReader(bad)); err == nil {
		t.Error("out-of-order BAIX accepted")
	}
}

func TestUnsortedInputProducesSortedIndex(t *testing.T) {
	cfg := simdata.DefaultConfig(150)
	cfg.Sorted = false
	d := simdata.Generate(cfg)
	f, idx := buildBAMX(t, d)
	entries := idx.Entries()
	for i := 1; i < len(entries); i++ {
		a, b := entries[i-1], entries[i]
		if a.RefID > b.RefID || (a.RefID == b.RefID && a.Pos > b.Pos) {
			t.Fatalf("index out of order at %d: %+v then %+v", i, a, b)
		}
	}
	// Entries still resolve to the right records.
	var rec sam.Record
	for _, e := range entries[:20] {
		if err := f.ReadRecord(e.Index, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Pos != e.Pos {
			t.Errorf("entry %+v resolves to pos %d", e, rec.Pos)
		}
	}
}

func TestCapsObserve(t *testing.T) {
	h := sam.NewHeader(sam.Reference{Name: "chr1", Length: 10000})
	rec, _ := sam.ParseRecord("read1\t0\tchr1\t5\t30\t2M1I1M\t*\t0\t0\tACGT\tIIII\tNM:i:1")
	body, err := bam.EncodeRecord(nil, &rec, h)
	if err != nil {
		t.Fatal(err)
	}
	var caps Caps
	caps.Observe(body[4:])
	if caps.QName != 6 { // "read1" + NUL
		t.Errorf("QName cap = %d, want 6", caps.QName)
	}
	if caps.CigarOps != 3 {
		t.Errorf("CigarOps cap = %d, want 3", caps.CigarOps)
	}
	if caps.Seq != 4 {
		t.Errorf("Seq cap = %d, want 4", caps.Seq)
	}
	if caps.Aux != 7 { // NM:i:1 → 2 name + 1 type + 4 int32
		t.Errorf("Aux cap = %d, want 7", caps.Aux)
	}
	if caps.Stride() != prefixSize+6+12+2+4+7 {
		t.Errorf("Stride = %d", caps.Stride())
	}
}
