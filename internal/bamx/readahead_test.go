package bamx

import (
	"bytes"
	"testing"

	"parseq/internal/obs"
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

// observeCodec makes a fresh registry the default for the test.
func observeCodec(t *testing.T) *obs.Registry {
	reg := obs.New()
	obs.SetDefault(reg)
	t.Cleanup(func() { obs.SetDefault(nil) })
	return reg
}

// pooledInflates counts the members inflated on a worker pool, which
// only the pooled reader StartReadahead swaps in feeds.
func pooledInflates(reg *obs.Registry) int64 {
	return reg.Counter("parpipe.bgzf.inflate.items").Value()
}

// onPooledReader fails unless a pool has inflated members since the
// count was before.
func onPooledReader(t *testing.T, reg *obs.Registry, before int64) {
	t.Helper()
	if pooledInflates(reg) == before {
		t.Fatal("readahead inflated no member on a worker pool")
	}
}

// A full sequential sweep with readahead on must deliver exactly the
// records the sequential reader delivers.
func TestReadaheadFullSweepParity(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(400))
	cf, _ := buildCompressed(t, d, 32)
	reg := observeCodec(t)
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
	onPooledReader(t, reg, 0)
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
	reg := observeCodec(t)
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
	onPooledReader(t, reg, 0)
}

// Closing mid-stream must stop the parallel reader; closing twice and
// restarting readahead afterwards must both work.
func TestReadaheadEarlyClose(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(500))
	cf, _ := buildCompressed(t, d, 8)
	reg := observeCodec(t)
	cf.StartReadahead(3)
	var rec sam.Record
	for i := int64(0); i < 20; i++ {
		if err := cf.ReadRecord(i, &rec); err != nil {
			t.Fatal(err)
		}
	}
	onPooledReader(t, reg, 0)
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	// Back on the inline reader after Close.
	pooled := pooledInflates(reg)
	if err := cf.ReadRecord(400, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.String() != d.Records[400].String() {
		t.Error("record differs after readahead teardown")
	}
	if pooledInflates(reg) != pooled {
		t.Error("after Close members still inflate on a worker pool")
	}
	// And readahead can start again.
	cf.StartReadahead(3)
	defer cf.Close()
	cf.StartReadahead(2) // a second start replaces the first
	if cf.workers != 2 {
		t.Errorf("readahead runs %d workers, want the second start's 2", cf.workers)
	}
	if err := cf.ReadRecord(450, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.String() != d.Records[450].String() {
		t.Error("record differs after readahead restart")
	}
	onPooledReader(t, reg, pooled)
}

// StartReadahead on an empty file is a no-op (no members to prefetch).
func TestReadaheadEmptyFile(t *testing.T) {
	h := sam.NewHeader(sam.Reference{Name: "chr1", Length: 100})
	cf := emptyCompressed(t, h)
	cf.StartReadahead(2)
	defer cf.Close()
	if cf.workers != 1 {
		t.Error("readahead started on an empty file")
	}
}
