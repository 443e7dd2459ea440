package bam

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"parseq/internal/sam"
)

// recordKey identifies a record for multiset comparison.
func recordKey(rec *sam.Record) string {
	return fmt.Sprintf("%s/%d@%s:%d", rec.QName, rec.Flag, rec.RName, rec.Pos)
}

// nextTail decodes the tail's next body into rec, reporting false at
// the end.
func nextTail(t *testing.T, ur *UnmappedTailReader, rec *sam.Record, h *sam.Header) bool {
	t.Helper()
	body, err := ur.NextBody()
	if err == io.EOF {
		return false
	}
	if err == nil {
		err = DecodeRecord(body, rec, h)
	}
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	return true
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
		// The unmapped tail completes the cover.
		br, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("NewReader: %v", err)
		}
		ur, err := NewUnmappedTailReader(br, idx)
		if err != nil {
			t.Fatalf("NewUnmappedTailReader: %v", err)
		}
		var rec sam.Record
		for nextTail(t, ur, &rec, h) {
			got[recordKey(&rec)]++
		}
		br.Close()

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

// TestUnmappedTailReaderOnly: the tail reader returns exactly the
// placeless records, even though chunk ends may round into its blocks.
func TestUnmappedTailReaderOnly(t *testing.T) {
	raw, idx, _, recs := makeIndexedDataset(t, 2000)
	want := 0
	for i := range recs {
		if recs[i].RName == "*" {
			want++
		}
	}
	br, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	defer br.Close()
	ur, err := NewUnmappedTailReader(br, idx)
	if err != nil {
		t.Fatalf("NewUnmappedTailReader: %v", err)
	}
	got := 0
	var rec sam.Record
	for nextTail(t, ur, &rec, br.Header()) {
		if rec.RName != "*" {
			t.Fatalf("tail returned placed record %s@%s", rec.QName, rec.RName)
		}
		got++
	}
	if got != want {
		t.Fatalf("tail read %d unmapped records, want %d", got, want)
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
