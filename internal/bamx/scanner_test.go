package bamx

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"parseq/internal/sam"
	"parseq/internal/simdata"
)

func TestScannerFullSweep(t *testing.T) {
	d := dataset(t, 500)
	f, _ := buildBAMX(t, d)
	scan := f.Scan(0, f.NumRecords())
	var rec sam.Record
	i := 0
	for {
		ok, err := scan.Next(&rec)
		if err != nil {
			t.Fatalf("Next at %d: %v", i, err)
		}
		if !ok {
			break
		}
		if rec.String() != d.Records[i].String() {
			t.Fatalf("record %d differs", i)
		}
		i++
	}
	if i != 500 {
		t.Fatalf("scanned %d records, want 500", i)
	}
	// Exhausted scanner stays exhausted.
	ok, err := scan.Next(&rec)
	if ok || err != nil {
		t.Errorf("Next after end = %v, %v", ok, err)
	}
}

func TestScannerSubRange(t *testing.T) {
	d := dataset(t, 200)
	f, _ := buildBAMX(t, d)
	scan := f.Scan(50, 75)
	var rec sam.Record
	for i := 50; i < 75; i++ {
		ok, err := scan.Next(&rec)
		if err != nil || !ok {
			t.Fatalf("Next(%d) = %v, %v", i, ok, err)
		}
		if rec.String() != d.Records[i].String() {
			t.Fatalf("record %d differs", i)
		}
	}
	if ok, _ := scan.Next(&rec); ok {
		t.Error("scanner ran past its range")
	}
}

func TestScannerEmptyAndClampedRanges(t *testing.T) {
	d := dataset(t, 20)
	f, _ := buildBAMX(t, d)
	var rec sam.Record
	// Empty range.
	if ok, err := f.Scan(5, 5).Next(&rec); ok || err != nil {
		t.Errorf("empty range Next = %v, %v", ok, err)
	}
	// Ranges clamp to the file bounds.
	scan := f.Scan(-3, 1000)
	n := 0
	for {
		ok, err := scan.Next(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 20 {
		t.Errorf("clamped scan read %d records, want 20", n)
	}
}

func TestScannerCrossesChunkBoundaries(t *testing.T) {
	// Enough records to force multiple 1 MiB chunks.
	d := dataset(t, 6000)
	f, _ := buildBAMX(t, d)
	if int64(f.Stride())*f.NumRecords() <= scanChunkBytes {
		t.Skip("dataset too small to span chunks")
	}
	scan := f.Scan(0, f.NumRecords())
	var rec sam.Record
	n := 0
	for {
		ok, err := scan.Next(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if int64(n) != f.NumRecords() {
		t.Errorf("scanned %d of %d records", n, f.NumRecords())
	}
}

func TestDecodeIntoReusesBuffer(t *testing.T) {
	d := dataset(t, 10)
	f, _ := buildBAMX(t, d)
	raw := make([]byte, f.Stride())
	var body []byte
	var rec sam.Record
	for i := int64(0); i < 10; i++ {
		if err := f.ReadRaw(i, raw); err != nil {
			t.Fatal(err)
		}
		var err error
		body, err = f.DecodeInto(raw, body, &rec)
		if err != nil {
			t.Fatalf("DecodeInto(%d): %v", i, err)
		}
		if rec.String() != d.Records[i].String() {
			t.Fatalf("record %d differs", i)
		}
	}
}

// countingReaderAt counts ReadAt calls and, when limit > 0, pretends
// the file was truncated to limit bytes after it was opened.
type countingReaderAt struct {
	r     io.ReaderAt
	reads int
	limit int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	if c.limit > 0 && off+int64(len(p)) > c.limit {
		n := max(c.limit-off, 0)
		c.r.ReadAt(p[:n], off)
		return int(n), io.EOF
	}
	return c.r.ReadAt(p, off)
}

// buildOrdered writes recs in the given physical order behind a
// counting reader; the BAIX entries are in coordinate order whatever
// the physical one.
func buildOrdered(t testing.TB, d *simdata.Dataset, recs []sam.Record) (*File, *Index, *countingReaderAt) {
	t.Helper()
	var buf bytes.Buffer
	idx, err := BuildFromRecords(&buf, d.Header, recs)
	if err != nil {
		t.Fatal(err)
	}
	cr := &countingReaderAt{r: bytes.NewReader(buf.Bytes())}
	f, err := Open(cr, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return f, idx, cr
}

// physicalOrders are the three layouts the coalescing contract names:
// coordinate-sorted (every entry adjacent to the next), reverse-sorted
// and shuffled (no entry adjacent to the next: the shuffle interleaves
// the even- and odd-ranked records, so the read count is exact).
func physicalOrders(d *simdata.Dataset) map[string][]sam.Record {
	n := len(d.Records)
	reversed := make([]sam.Record, n)
	shuffled := make([]sam.Record, 0, n)
	for i, rec := range d.Records {
		reversed[n-1-i] = rec
		if i%2 == 0 {
			shuffled = append(shuffled, rec)
		}
	}
	for i := 1; i < n; i += 2 {
		shuffled = append(shuffled, d.Records[i])
	}
	return map[string][]sam.Record{"sorted": d.Records, "reversed": reversed, "shuffled": shuffled}
}

// TestScanEntriesMatchesPerRecordReads: over every physical order and
// every shape of entry slice, ScanEntries yields the bodies the
// per-record ReadRaw + AppendBody loop yields, in entry order.
func TestScanEntriesMatchesPerRecordReads(t *testing.T) {
	d := dataset(t, 6000) // more than one chunk
	for order, recs := range physicalOrders(d) {
		f, idx, _ := buildOrdered(t, d, recs)
		all := idx.Entries()
		lo, hi := idx.Region(0, 1, 1<<30)
		if hi-lo < 2 || hi-lo == len(all) {
			t.Fatalf("%s: region [%d, %d) of %d entries does not exercise a sub-slice", order, lo, hi, len(all))
		}
		walks := map[string][]Entry{
			"whole": all, "region": all[lo:hi], "empty": all[lo:lo], "nil": nil, "single": all[hi-1 : hi],
		}
		raw := make([]byte, f.Stride())
		for walk, entries := range walks {
			sc := f.ScanEntries(entries)
			for k, e := range entries {
				if err := f.ReadRaw(e.Index, raw); err != nil {
					t.Fatal(err)
				}
				want, err := f.AppendBody(nil, raw)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sc.NextBody()
				if err != nil {
					t.Fatalf("%s/%s: NextBody at entry %d: %v", order, walk, k, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s/%s: entry %d (record %d) differs from ReadRaw+AppendBody", order, walk, k, e.Index)
				}
			}
			for i := 0; i < 2; i++ { // exhausted stays exhausted
				if _, err := sc.NextBody(); err != io.EOF {
					t.Fatalf("%s/%s: after the last entry: %v, want io.EOF", order, walk, err)
				}
			}
		}
	}
}

// TestScanEntriesReadCounts pins the coalescing: a coordinate-sorted
// file is read in chunks, a shuffled one a record at a time.
func TestScanEntriesReadCounts(t *testing.T) {
	d := dataset(t, 6000)
	// Drop position ties: BAIX orders them by physical index, which
	// would let a shuffled file coalesce a pair here and there.
	distinct := d.Records[:1:1]
	for _, rec := range d.Records[1:] {
		if last := distinct[len(distinct)-1]; rec.RName != last.RName || rec.Pos != last.Pos {
			distinct = append(distinct, rec)
		}
	}
	d = &simdata.Dataset{Header: d.Header, Records: distinct}
	drain := func(sc *Scanner) int {
		t.Helper()
		n := 0
		for {
			if _, err := sc.NextRaw(); err == io.EOF {
				return n
			} else if err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	orders := physicalOrders(d)

	f, idx, cr := buildOrdered(t, d, orders["sorted"])
	bytesRead := int64(idx.Len()) * int64(f.Stride())
	if bytesRead <= scanChunkBytes {
		t.Fatalf("dataset of %d bytes fits one chunk", bytesRead)
	}
	cr.reads = 0
	if n := drain(f.ScanEntries(idx.Entries())); n != idx.Len() {
		t.Fatalf("sorted: %d records, want %d", n, idx.Len())
	}
	if limit := int((bytesRead+scanChunkBytes-1)/scanChunkBytes) + 1; cr.reads > limit {
		t.Errorf("sorted: %d reads for %d bytes, want at most %d", cr.reads, bytesRead, limit)
	}

	f, idx, cr = buildOrdered(t, d, orders["shuffled"])
	cr.reads = 0
	if n := drain(f.ScanEntries(idx.Entries())); n != idx.Len() {
		t.Fatalf("shuffled: %d records, want %d", n, idx.Len())
	}
	if cr.reads != idx.Len() {
		t.Errorf("shuffled: %d reads, want one per entry (%d)", cr.reads, idx.Len())
	}

	// A region smaller than a chunk holds a buffer of its own size.
	if sc := f.ScanEntries(idx.Entries()[:10]); cap(sc.buf) != 10*f.Stride() {
		t.Errorf("10-entry walk holds a %d-byte chunk, want %d", cap(sc.buf), 10*f.Stride())
	}

}

// TestScanEntriesBounds: an entry outside the file is the error ReadRaw
// gives, also at the end of a coalesced run, and a file truncated after
// Open is an error, never zero-filled records.
func TestScanEntriesBounds(t *testing.T) {
	d := dataset(t, 40)
	f, _, cr := buildOrdered(t, d, d.Records)
	n := f.NumRecords()
	raw := make([]byte, f.Stride())
	for _, tc := range []struct {
		name    string
		entries []Entry
		good    int // records yielded before the error
		bad     int64
	}{
		{"negative", []Entry{{Index: -1}}, 0, -1},
		{"past the end", []Entry{{Index: n}}, 0, n},
		{"run crossing the end", []Entry{{Index: n - 2}, {Index: n - 1}, {Index: n}, {Index: n + 1}}, 2, n},
		{"after a good run", []Entry{{Index: 3}, {Index: 4}, {Index: n + 7}}, 2, n + 7},
	} {
		sc := f.ScanEntries(tc.entries)
		for k := 0; k < tc.good; k++ {
			if _, err := sc.NextRaw(); err != nil {
				t.Fatalf("%s: entry %d: %v", tc.name, k, err)
			}
		}
		_, err := sc.NextRaw()
		if want := f.ReadRaw(tc.bad, raw); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: err = %v, want %v", tc.name, err, want)
		}
		if _, again := sc.NextRaw(); again != err {
			t.Errorf("%s: error not sticky: %v then %v", tc.name, err, again)
		}
	}

	cr.limit = f.dataStart + 10*int64(f.Stride()) + 5
	for name, sc := range map[string]*Scanner{
		"range":   f.Scan(0, n),
		"entries": f.ScanEntries([]Entry{{Index: 9}, {Index: 10}}),
	} {
		var err error
		for err == nil {
			_, err = sc.NextRaw()
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s over a truncated file: %v, want io.ErrUnexpectedEOF", name, err)
		}
	}
}
