package shard

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"parseq/internal/formats/pamx"
	"parseq/internal/simdata"
)

// writePAMXFile materialises a deterministic dataset as BAM and
// converts it to PAMX with roughly target column groups.
func writePAMXFile(t testing.TB, n, target int) (string, *simdata.Dataset) {
	t.Helper()
	dir := t.TempDir()
	d := simdata.Generate(simdata.DefaultConfig(n))
	bamPath := filepath.Join(dir, "data.bam")
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
	pamxPath := filepath.Join(dir, "data.pamx")
	if _, err := Rewrite(bamPath, pamxPath, WithGroupCaps(0, (n+target-1)/target)); err != nil {
		t.Fatal(err)
	}
	return pamxPath, d
}

// TestPAMXProviderShards: one shard per column group, exactly-once
// record coverage over the full shard list, reference filtering at
// group granularity, and projection-sensitive byte weights.
func TestPAMXProviderShards(t *testing.T) {
	const n = 2000
	path, d := writePAMXFile(t, n, 6)
	p := NewPAMXProvider(path)
	defer p.Close()

	shards, err := p.GenerateShards(Options{})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := pamx.OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	groups := pf.NumGroups()
	pf.Close()
	if len(shards) != groups {
		t.Fatalf("%d shards for %d groups", len(shards), groups)
	}

	var total int64
	for _, sh := range shards {
		rr, err := p.NewReader(sh)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := rr.NextBody(); err != nil {
				if err == io.EOF {
					break
				}
				t.Fatal(err)
			}
			total++
		}
		rr.Close()
	}
	if total != n {
		t.Fatalf("full shard list yields %d records, want %d", total, n)
	}

	// Reference filtering keeps only that reference's groups, no tail.
	rname := d.Header.Refs[0].Name
	refID := int32(d.Header.RefID(rname))
	only, err := p.GenerateShards(Options{Refs: []string{rname}})
	if err != nil {
		t.Fatal(err)
	}
	if len(only) == 0 {
		t.Fatalf("no shards for %s", rname)
	}
	for _, sh := range only {
		if sh.RefID != refID {
			t.Fatalf("Refs=[%s] yielded a shard on ref %d", rname, sh.RefID)
		}
	}

	// A narrow projection must shrink the shard byte weights: the
	// estimate counts only the compressed columns a reader will load.
	fullBytes := shards[0].Bytes
	p2 := NewPAMXProvider(path)
	defer p2.Close()
	p2.Project(pamx.FieldFlag)
	narrow, err := p2.GenerateShards(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if narrow[0].Bytes >= fullBytes {
		t.Fatalf("projected weight %d not below full weight %d", narrow[0].Bytes, fullBytes)
	}
}

// TestOpenPathProviderPAMX: the path dispatcher must route .pamx files
// to the columnar provider.
func TestOpenPathProviderPAMX(t *testing.T) {
	path, _ := writePAMXFile(t, 200, 2)
	p := OpenPathProvider(path)
	defer p.Close()
	if _, ok := p.(*PAMXProvider); !ok {
		t.Fatalf("OpenPathProvider(%q) = %T, want *PAMXProvider", path, p)
	}
	if _, err := p.Header(); err != nil {
		t.Fatal(err)
	}
}
