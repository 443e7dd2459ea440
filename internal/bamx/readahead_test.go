package bamx

import (
	"bytes"
	"testing"

	"parseq/internal/bgzf"
	"parseq/internal/sam"
	"parseq/internal/simdata"
)

// emptyCompressed builds a zero-record compressed file.
func emptyCompressed(t *testing.T, h *sam.Header) *CompressedFile {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewCompressedWriterWorkers(&buf, h, Caps{QName: 8, Seq: 8}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCompressed(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return cf
}

// onParallelReader fails unless cf's reads are served by a
// bgzf.ParallelReader, the reader StartReadahead swaps in.
func onParallelReader(t *testing.T, cf *CompressedFile) {
	t.Helper()
	if _, ok := cf.src.(*bgzf.ParallelReader); !ok {
		t.Fatalf("readahead reads through %T, want *bgzf.ParallelReader", cf.src)
	}
}

// A full sequential sweep with readahead on must deliver exactly the
// records the sequential reader delivers.
func TestReadaheadFullSweepParity(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(400))
	cf, _ := buildCompressed(t, d, 32)
	cf.StartReadahead(2)
	defer cf.Close()
	var rec sam.Record
	for i := int64(0); i < cf.NumRecords(); i++ {
		if err := cf.ReadRecord(i, &rec); err != nil {
			t.Fatalf("ReadRecord(%d): %v", i, err)
		}
		if rec.String() != d.Records[i].String() {
			t.Fatalf("record %d differs with readahead on", i)
		}
	}
	onParallelReader(t, cf)
	// A second sweep after reaching the end seeks back.
	for i := int64(0); i < cf.NumRecords(); i += 37 {
		if err := cf.ReadRecord(i, &rec); err != nil {
			t.Fatalf("second sweep ReadRecord(%d): %v", i, err)
		}
		if rec.String() != d.Records[i].String() {
			t.Fatalf("second sweep record %d differs", i)
		}
	}
}

// Jumps — backwards and far forwards — must re-seek the parallel reader
// transparently.
func TestReadaheadJumpAccess(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(600))
	cf, _ := buildCompressed(t, d, 16)
	cf.StartReadahead(2)
	defer cf.Close()
	var rec sam.Record
	for _, i := range []int64{599, 0, 300, 1, 598, 16, 15, 450, 2, 599, 0} {
		if err := cf.ReadRecord(i, &rec); err != nil {
			t.Fatalf("ReadRecord(%d): %v", i, err)
		}
		if rec.String() != d.Records[i].String() {
			t.Fatalf("record %d differs across jumps", i)
		}
	}
	onParallelReader(t, cf)
}

// Closing mid-stream must stop the parallel reader; closing twice and
// restarting readahead afterwards must both work.
func TestReadaheadEarlyClose(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(500))
	cf, _ := buildCompressed(t, d, 8)
	cf.StartReadahead(3)
	var rec sam.Record
	for i := int64(0); i < 20; i++ {
		if err := cf.ReadRecord(i, &rec); err != nil {
			t.Fatal(err)
		}
	}
	onParallelReader(t, cf)
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	// Back on the sequential reader after Close.
	if err := cf.ReadRecord(400, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.String() != d.Records[400].String() {
		t.Error("record differs after readahead teardown")
	}
	if _, ok := cf.src.(*bgzf.Reader); !ok {
		t.Errorf("after Close reads go through %T, want *bgzf.Reader", cf.src)
	}
	// And readahead can start again.
	cf.StartReadahead(0) // adaptive worker default
	defer cf.Close()
	cf.StartReadahead(2) // second start is a no-op
	if cf.workers != bgzf.AutoWorkers() {
		t.Errorf("readahead runs %d workers, want the adaptive %d", cf.workers, bgzf.AutoWorkers())
	}
	if err := cf.ReadRecord(450, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.String() != d.Records[450].String() {
		t.Error("record differs after readahead restart")
	}
	onParallelReader(t, cf)
}

// StartReadahead on an empty file is a no-op (no members to prefetch).
func TestReadaheadEmptyFile(t *testing.T) {
	h := sam.NewHeader(sam.Reference{Name: "chr1", Length: 100})
	cf := emptyCompressed(t, h)
	cf.StartReadahead(2)
	defer cf.Close()
	if cf.workers != 0 {
		t.Error("readahead started on an empty file")
	}
}
