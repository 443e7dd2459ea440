package conv

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"parseq/internal/bam"
	"parseq/internal/obs"
)

func TestConvertSAMToBAMRoundTrip(t *testing.T) {
	samPath, _, d := writeDataset(t, 400)
	for _, cores := range []int{1, 4} {
		outDir := t.TempDir()
		res, err := ConvertSAMToBAM(samPath, Options{
			Cores: cores, OutDir: outDir, OutPrefix: "shard",
		})
		if err != nil {
			t.Fatalf("ConvertSAMToBAM(cores=%d): %v", cores, err)
		}
		if len(res.Files) != cores {
			t.Fatalf("shards = %d, want %d", len(res.Files), cores)
		}
		if res.Stats.Records != 400 {
			t.Errorf("records = %d", res.Stats.Records)
		}

		// Every shard is a standalone valid BAM with the full header.
		var all []string
		for _, shard := range res.Files {
			f, err := os.Open(shard)
			if err != nil {
				t.Fatal(err)
			}
			r, err := bam.NewReader(f)
			if err != nil {
				t.Fatalf("shard %s unreadable: %v", shard, err)
			}
			if len(r.Header().Refs) != len(d.Header.Refs) {
				t.Errorf("shard %s refs = %d", shard, len(r.Header().Refs))
			}
			recs, err := r.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			for i := range recs {
				all = append(all, recs[i].String())
			}
			f.Close()
		}
		if len(all) != len(d.Records) {
			t.Fatalf("cores=%d: %d records across shards, want %d", cores, len(all), len(d.Records))
		}
		for i := range all {
			if all[i] != d.Records[i].String() {
				t.Fatalf("cores=%d: record %d differs after SAM→BAM", cores, i)
			}
		}
	}
}

func TestMergeBAMShards(t *testing.T) {
	samPath, _, d := writeDataset(t, 300)
	outDir := t.TempDir()
	res, err := ConvertSAMToBAM(samPath, Options{Cores: 3, OutDir: outDir, OutPrefix: "s"})
	if err != nil {
		t.Fatal(err)
	}
	merged := filepath.Join(outDir, "merged.bam")
	n, err := MergeBAMShards(res.Files, merged, 0)
	if err != nil {
		t.Fatalf("MergeBAMShards: %v", err)
	}
	if n != 300 {
		t.Errorf("merged %d records", n)
	}
	f, err := os.Open(merged)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := bam.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 300 {
		t.Fatalf("records = %d", len(recs))
	}
	for i := range recs {
		if recs[i].String() != d.Records[i].String() {
			t.Fatalf("merged record %d differs", i)
		}
	}
}

func TestMergeBAMShardsErrors(t *testing.T) {
	if _, err := MergeBAMShards(nil, filepath.Join(t.TempDir(), "o.bam"), 0); err == nil {
		t.Error("empty shard list accepted")
	}
	if _, err := MergeBAMShards([]string{"/does/not/exist.bam"}, filepath.Join(t.TempDir(), "o.bam"), 0); err == nil {
		t.Error("missing shard accepted")
	}
}

// MergeBAMShards' codec count follows bgzf's rule: 0 is adaptive, so the
// fused writer deflates on the shared pool (its pipeline counters move
// whatever the CPU count), while 1 keeps every stream on the caller. The
// bytes are the same either way.
func TestMergeBAMShardsCodecWorkersZeroIsAdaptive(t *testing.T) {
	samPath, _, _ := writeDataset(t, 300)
	outDir := t.TempDir()
	res, err := ConvertSAMToBAM(samPath, Options{Cores: 3, OutDir: outDir, OutPrefix: "s", CodecWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	merged := map[int][]byte{}
	for _, workers := range []int{0, 1} {
		reg := obs.New()
		obs.SetDefault(reg)
		out := filepath.Join(outDir, fmt.Sprintf("merged%d.bam", workers))
		_, err := MergeBAMShards(res.Files, out, workers)
		obs.SetDefault(nil)
		if err != nil {
			t.Fatalf("MergeBAMShards(%d): %v", workers, err)
		}
		if merged[workers], err = os.ReadFile(out); err != nil {
			t.Fatal(err)
		}
		deflated := reg.Counter("parpipe.bgzf.deflate.items").Value()
		inflated := reg.Counter("parpipe.bgzf.inflate.items").Value()
		if workers == 0 && deflated == 0 {
			t.Error("codec workers 0: the merged writer ran no block on a pool")
		}
		if workers == 1 && deflated+inflated != 0 {
			t.Errorf("codec workers 1: %d deflate and %d inflate jobs ran on a pool", deflated, inflated)
		}
	}
	if !bytes.Equal(merged[0], merged[1]) {
		t.Error("merged bytes depend on the codec worker count")
	}
}

func TestConvertSAMToBAMRejectsRegion(t *testing.T) {
	samPath, _, _ := writeDataset(t, 10)
	_, err := ConvertSAMToBAM(samPath, Options{
		OutDir: t.TempDir(), Region: &Region{RName: "chr1", Beg: 1},
	})
	if err == nil {
		t.Error("region accepted")
	}
}
