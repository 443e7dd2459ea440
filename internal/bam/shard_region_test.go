package bam

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"parseq/internal/bgzf"
	"parseq/internal/obs"
	"parseq/internal/sam"
)

// recordKey identifies a record for multiset comparison.
func recordKey(rec *sam.Record) string {
	return fmt.Sprintf("%s/%d@%s:%d", rec.QName, rec.Flag, rec.RName, rec.Pos)
}

// lastPiece returns the records of the last of n file-order pieces
// (Index.Cuts), which runs to the end of the file.
func lastPiece(t *testing.T, raw []byte, idx *Index, n int) []sam.Record {
	t.Helper()
	hr, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	hr.Close()
	lo := hr.DataStart()
	if cuts := idx.Cuts(lo, int64(len(raw)), n); len(cuts) > 0 {
		lo = cuts[len(cuts)-1]
	}
	br, err := NewReaderAt(bytes.NewReader(raw), hr.Header(), lo)
	if err != nil {
		t.Fatalf("NewReaderAt: %v", err)
	}
	defer br.Close()
	s := NewPieceScanner(br, bgzf.MakeVOffset(int64(len(raw)), 0))
	var recs []sam.Record
	for {
		body, err := s.Next()
		if err == io.EOF {
			return recs
		}
		var rec sam.Record
		if err == nil {
			err = DecodeRecord(body, &rec, hr.Header())
		}
		if err != nil {
			t.Fatalf("last piece from %v: %v", lo, err)
		}
		recs = append(recs, rec)
	}
}

// readShardSlice drains one start-within region reader into keys.
func readShardSlice(t *testing.T, raw []byte, idx *Index, refName string, beg, end int, into map[string]int) {
	t.Helper()
	br, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	defer br.Close()
	rr, err := NewShardRegionReader(br, idx, refName, beg, end)
	if err != nil {
		t.Fatalf("NewShardRegionReader: %v", err)
	}
	var rec sam.Record
	for {
		if err := rr.ReadInto(&rec); err == io.EOF {
			return
		} else if err != nil {
			t.Fatalf("ReadInto: %v", err)
		}
		into[recordKey(&rec)]++
	}
}

// TestShardPartitionExactlyOnce is the contract the shard layer builds
// on: a start-within partition of every reference plus the unmapped
// tail yields every record of the file exactly once, at any slicing.
func TestShardPartitionExactlyOnce(t *testing.T) {
	raw, idx, h, recs := makeIndexedDataset(t, 4000)

	want := map[string]int{}
	for i := range recs {
		want[recordKey(&recs[i])]++
	}

	for _, target := range []int64{1, 1 << 12, 1 << 16, 1 << 40} {
		got := map[string]int{}
		for refID, ref := range h.Refs {
			for _, sl := range idx.ByteSplits(refID, ref.Length, target) {
				readShardSlice(t, raw, idx, ref.Name, sl.Beg, sl.End, got)
			}
		}
		// The unmapped tail, at the end of the last piece, completes the cover.
		for _, rec := range lastPiece(t, raw, idx, 4) {
			if rec.RName == "*" {
				got[recordKey(&rec)]++
			}
		}

		if len(got) != len(want) {
			t.Fatalf("target %d: %d distinct records, want %d", target, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("target %d: record %s seen %d times, want %d", target, k, got[k], n)
			}
		}
	}
}

// TestByteSplitsProperties checks the slicer's structural guarantees:
// slices start at zero, are contiguous and half-open, cover every base
// an indexed alignment can start on, and their byte estimates sum to
// the reference's compressed span.
func TestByteSplitsProperties(t *testing.T) {
	_, idx, h, _ := makeIndexedDataset(t, 4000)
	for refID, ref := range h.Refs {
		beg, end, ok := idx.RefSpan(refID)
		if !ok {
			continue
		}
		span := end.Block() - beg.Block()
		for _, target := range []int64{1, 1 << 10, 1 << 14, 1 << 40} {
			slices := idx.ByteSplits(refID, ref.Length, target)
			if len(slices) == 0 {
				t.Fatalf("%s: no slices", ref.Name)
			}
			if slices[0].Beg != 0 {
				t.Fatalf("%s: first slice starts at %d", ref.Name, slices[0].Beg)
			}
			var bytes int64
			for i, sl := range slices {
				if sl.End <= sl.Beg {
					t.Fatalf("%s: empty slice %d: [%d, %d)", ref.Name, i, sl.Beg, sl.End)
				}
				if i > 0 && sl.Beg != slices[i-1].End {
					t.Fatalf("%s: gap between slice %d end %d and slice %d beg %d",
						ref.Name, i-1, slices[i-1].End, i, sl.Beg)
				}
				if i < len(slices)-1 && sl.Beg%LinearWindowBases != 0 {
					t.Fatalf("%s: slice %d beg %d not window-aligned", ref.Name, i, sl.Beg)
				}
				bytes += sl.Bytes
			}
			if last := slices[len(slices)-1]; last.End < ref.Length {
				t.Fatalf("%s: slices end at %d, reference is %d", ref.Name, last.End, ref.Length)
			}
			if bytes != span {
				t.Fatalf("%s target %d: slice bytes sum %d, span %d", ref.Name, target, bytes, span)
			}
		}
	}
}

// TestQueryMergesSameBlockChunks: after the merge, consecutive chunks
// must live in distinct compressed blocks — otherwise the reader would
// re-inflate a block it already holds.
func TestQueryMergesSameBlockChunks(t *testing.T) {
	_, idx, h, _ := makeIndexedDataset(t, 4000)
	for refID, ref := range h.Refs {
		chunks := idx.Query(refID, 0, ref.Length)
		for i := 1; i < len(chunks); i++ {
			if chunks[i].Beg.Block() <= chunks[i-1].End.Block() {
				t.Fatalf("%s: chunks %d and %d share compressed block %d",
					ref.Name, i-1, i, chunks[i].Beg.Block())
			}
			if chunks[i].Beg < chunks[i-1].End {
				t.Fatalf("%s: chunks %d and %d overlap", ref.Name, i-1, i)
			}
		}
	}
}

// TestUnmappedTailReaderOnly: the last file-order piece runs to the end
// of the file, so it holds every placeless record and the records before
// them back to its cut, in file order, at any piece count.
func TestUnmappedTailReaderOnly(t *testing.T) {
	raw, idx, _, recs := makeIndexedDataset(t, 2000)
	want := 0
	for i := range recs {
		if recs[i].RName == "*" {
			want++
		}
	}
	for _, n := range []int{1, 2, 5} {
		piece := lastPiece(t, raw, idx, n)
		if n == 1 && len(piece) != len(recs) {
			t.Fatalf("one piece read %d records, want %d", len(piece), len(recs))
		}
		got := 0
		for i, rec := range piece {
			if k := recordKey(&recs[len(recs)-len(piece)+i]); recordKey(&rec) != k {
				t.Fatalf("%d pieces: last piece record %d is %s, the file's is %s", n, i, recordKey(&rec), k)
			}
			if rec.RName == "*" {
				got++
			}
		}
		if got != want {
			t.Fatalf("%d pieces: the last piece read %d unmapped records, want %d", n, got, want)
		}
	}
}

// TestCountRegionAllocs is the satellite guard: the census loop must
// not allocate per record. Fixed costs (reader construction, chunk
// list, block inflation buffers) are amortised over the records, so the
// per-record ratio sits near zero; a regression to decoding records
// again would push it past one allocation per record.
func TestCountRegionAllocs(t *testing.T) {
	raw, idx, h, recs := makeIndexedDataset(t, 4000)
	ref := h.Refs[0]
	n := 0
	for i := range recs {
		if recs[i].RName == ref.Name {
			n++
		}
	}
	if n < 100 {
		t.Fatalf("dataset has only %d %s records", n, ref.Name)
	}
	rd := bytes.NewReader(raw)
	allocs := testing.AllocsPerRun(5, func() {
		rd.Seek(0, io.SeekStart)
		br, err := NewReader(rd)
		if err != nil {
			t.Fatalf("NewReader: %v", err)
		}
		defer br.Close()
		got, err := CountRegion(br, idx, ref.Name, 0, ref.Length)
		if err != nil {
			t.Fatalf("CountRegion: %v", err)
		}
		if got != n {
			t.Fatalf("CountRegion = %d, want %d", got, n)
		}
	})
	if perRecord := allocs / float64(n); perRecord > 0.5 {
		t.Fatalf("CountRegion allocates %.2f objects per record (%.0f total for %d records)",
			perRecord, allocs, n)
	}
}

// TestPieceEndsAtBlockBoundary: a block's end and the next block's start
// are one stream position. With a record starting exactly at a block
// boundary, a piece ending at either form of its offset ends before it
// without inflating the next block, and a piece starting at either form
// starts with it.
func TestPieceEndsAtBlockBoundary(t *testing.T) {
	h := sam.NewHeader(sam.Reference{Name: "chr1", Length: 197195})
	recs := genSorted(3, 3000, h)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	k := len(recs) / 2
	var blockEnd, blockStart bgzf.VOffset
	for i := range recs {
		if i == k {
			blockEnd = w.Offset()
			if err := w.bg.Flush(); err != nil {
				t.Fatal(err)
			}
			blockStart = w.Offset()
		}
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if blockEnd.Block() == blockStart.Block() || blockStart.Intra() != 0 {
		t.Fatalf("record %d starts at %v and %v, want the end of one block and the start of the next", k, blockEnd, blockStart)
	}
	hr, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	hr.Close()
	reg := obs.New()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	blocks := reg.Counter("bgzf.inflate.blocks")
	// piece counts the records in [lo, hi) and the blocks it inflated.
	piece := func(lo, hi bgzf.VOffset) (n int, inflated int64) {
		before := blocks.Value()
		br, err := NewReaderAt(bytes.NewReader(raw), h, lo)
		if err != nil {
			t.Fatal(err)
		}
		defer br.Close()
		s := NewPieceScanner(br, hi)
		for ; ; n++ {
			if _, err := s.Next(); err == io.EOF {
				return n, blocks.Value() - before
			} else if err != nil {
				t.Fatalf("piece [%v, %v): %v", lo, hi, err)
			}
		}
	}
	toEnd := bgzf.MakeVOffset(int64(len(raw)), 0)
	n1, b1 := piece(hr.DataStart(), blockEnd)
	n2, b2 := piece(hr.DataStart(), blockStart)
	if n1 != k || n2 != k || b1 != b2 {
		t.Errorf("pieces ending at %v and %v: %d and %d records inflating %d and %d blocks, want %d records and the same blocks", blockEnd, blockStart, n1, n2, b1, b2, k)
	}
	if n1, _ := piece(blockEnd, toEnd); n1 != len(recs)-k {
		t.Errorf("piece from %v: %d records, want %d", blockEnd, n1, len(recs)-k)
	}
	if n2, _ := piece(blockStart, toEnd); n2 != len(recs)-k {
		t.Errorf("piece from %v: %d records, want %d", blockStart, n2, len(recs)-k)
	}
}
