package bamx_test

import (
	"os"
	"path/filepath"
	"testing"

	"parseq/internal/bamx"
	"parseq/internal/sam"
	"parseq/internal/shard"
	"parseq/internal/simdata"
)

// TestPreprocessBAMMatchesSource: a BAM rewritten as BAMX (the
// preprocessing phase, shard.Rewrite into the BAMX sink) holds the BAM's
// records in order, and its BAIX is the one a scan of the file rebuilds.
func TestPreprocessBAMMatchesSource(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(120))
	dir := t.TempDir()
	bamPath, bamxPath := filepath.Join(dir, "d.bam"), filepath.Join(dir, "d.bamx")
	f, err := os.Create(bamPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBAM(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := shard.Rewrite(bamPath, bamxPath, shard.WithCodecWorkers(0)); err != nil || n != int64(len(d.Records)) {
		t.Fatalf("Rewrite = %d, %v; want %d records", n, err, len(d.Records))
	}
	raw, err := os.Open(bamxPath)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	st, err := raw.Stat()
	if err != nil {
		t.Fatal(err)
	}
	xf, err := bamx.Open(raw, st.Size())
	if err != nil {
		t.Fatal(err)
	}
	if xf.NumRecords() != int64(len(d.Records)) {
		t.Fatalf("records = %d, want %d", xf.NumRecords(), len(d.Records))
	}
	var rec sam.Record
	for i := range d.Records {
		if err := xf.ReadRecord(int64(i), &rec); err != nil {
			t.Fatalf("ReadRecord(%d): %v", i, err)
		}
		if rec.String() != d.Records[i].String() {
			t.Errorf("record %d differs after BAM→BAMX", i)
		}
	}
	// The sidecar the sink wrote must match an index rebuilt from the file.
	ixf, err := os.Open(filepath.Join(dir, "d.baix"))
	if err != nil {
		t.Fatal(err)
	}
	defer ixf.Close()
	idx, err := bamx.ReadIndex(ixf)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := bamx.BuildIndex(xf)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Len() != idx.Len() {
		t.Fatalf("rebuilt index %d entries, want %d", rebuilt.Len(), idx.Len())
	}
	for i, e := range rebuilt.Entries() {
		if e != idx.Entries()[i] {
			t.Errorf("entry %d: rebuilt %+v vs preprocessed %+v", i, e, idx.Entries()[i])
		}
	}
}
