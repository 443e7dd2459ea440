package shard

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"parseq/internal/bam"
	"parseq/internal/bamx"
	"parseq/internal/formats/pamx"
	"parseq/internal/mpi"
	"parseq/internal/sam"
	"parseq/internal/simdata"
)

// writeDataset materialises one deterministic simdata dataset as a BAM
// file (no .bai sidecar — the provider builds the index in memory) and
// a BAMX file with its BAIX sidecar, returning both paths.
func writeDataset(t testing.TB, n int) (bamPath, bamxPath string, d *simdata.Dataset) {
	t.Helper()
	dir := t.TempDir()
	d = simdata.Generate(simdata.DefaultConfig(n))

	bamPath = filepath.Join(dir, "data.bam")
	bf, err := os.Create(bamPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBAM(bf); err != nil {
		t.Fatal(err)
	}
	if err := bf.Close(); err != nil {
		t.Fatal(err)
	}

	bamxPath = filepath.Join(dir, "data.bamx")
	xf, err := os.Create(bamxPath)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := bamx.BuildFromRecords(xf, d.Header, d.Records)
	if err != nil {
		t.Fatal(err)
	}
	if err := xf.Close(); err != nil {
		t.Fatal(err)
	}
	ixf, err := os.Create(filepath.Join(dir, "data.baix"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.WriteTo(ixf); err != nil {
		t.Fatal(err)
	}
	if err := ixf.Close(); err != nil {
		t.Fatal(err)
	}
	return bamPath, bamxPath, d
}

// writeVariants adds, beside a writeDataset BAMX, its block-compressed
// BAMZ (sharing the BAIX) and a shuffled BAMX with its own BAIX.
func writeVariants(t testing.TB, bamxPath string, d *simdata.Dataset) (bamzPath, shufPath string, shuffled []sam.Record) {
	t.Helper()
	dir := filepath.Dir(bamxPath)
	bamzPath = filepath.Join(dir, "data.bamz")
	if _, err := bamx.CompressFile(bamxPath, bamzPath, 64, 1); err != nil {
		t.Fatal(err)
	}
	shuffled = append([]sam.Record(nil), d.Records...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	shufPath = filepath.Join(dir, "shuf.bamx")
	xf, err := os.Create(shufPath)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := bamx.BuildFromRecords(xf, d.Header, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if err := xf.Close(); err != nil {
		t.Fatal(err)
	}
	var baix bytes.Buffer
	if _, err := idx.WriteTo(&baix); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shuf.baix"), baix.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return bamzPath, shufPath, shuffled
}

func recordKey(rec *sam.Record) string {
	return fmt.Sprintf("%s/%d@%s:%d", rec.QName, rec.Flag, rec.RName, rec.Pos)
}

// drainShards reads every shard through the provider and returns the
// record multiset.
func drainShards(t *testing.T, p Provider, shards []Shard) map[string]int {
	t.Helper()
	got := map[string]int{}
	h, err := p.Header()
	if err != nil {
		t.Fatalf("Header: %v", err)
	}
	var rec sam.Record
	for _, sh := range shards {
		rr, err := p.NewReader(sh)
		if err != nil {
			t.Fatalf("NewReader(%v): %v", sh, err)
		}
		for {
			body, err := rr.NextBody()
			if err == io.EOF {
				break
			}
			if err == nil {
				err = bam.DecodeRecord(body, &rec, h)
			}
			if err != nil {
				t.Fatalf("shard %v: %v", sh, err)
			}
			got[recordKey(&rec)]++
		}
		if err := rr.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	return got
}

func wantMultiset(d *simdata.Dataset) map[string]int {
	want := map[string]int{}
	for i := range d.Records {
		want[recordKey(&d.Records[i])]++
	}
	return want
}

func checkMultiset(t *testing.T, label string, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct records, want %d", label, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%s: record %s seen %d times, want %d", label, k, got[k], n)
		}
	}
}

// TestProvidersExactlyOnce is the tentpole contract for every provider:
// at every shard-count target the generated shards cover the dataset
// exactly once, including the unmapped tail — sorted or not, for the
// fixed-stride containers.
func TestProvidersExactlyOnce(t *testing.T) {
	bamPath, bamxPath, d := writeDataset(t, 3000)
	bamzPath, shufPath, _ := writeVariants(t, bamxPath, d)
	want := wantMultiset(d)
	providers := []struct {
		name string
		p    Provider
	}{
		{"bam", NewBAMProvider(bamPath)},
		{"bamx", NewBAMXProvider(bamxPath)},
		{"bamz", NewBAMZProvider(bamzPath)},
		{"bamz readahead", NewBAMZProvider(bamzPath, WithCodecWorkers(2))},
		{"bamx unsorted", NewBAMXProvider(shufPath)},
	}
	for _, tc := range providers {
		defer tc.p.Close()
		for _, target := range []int{1, 2, 4, 8, 64} {
			shards, err := tc.p.GenerateShards(Options{TargetShards: target})
			if err != nil {
				t.Fatalf("%s: GenerateShards(%d): %v", tc.name, target, err)
			}
			if len(shards) == 0 {
				t.Fatalf("%s: no shards at target %d", tc.name, target)
			}
			for i, sh := range shards {
				if sh.Seq != i {
					t.Fatalf("%s: shard %d carries Seq %d", tc.name, i, sh.Seq)
				}
			}
			got := drainShards(t, tc.p, shards)
			checkMultiset(t, fmt.Sprintf("%s target %d", tc.name, target), got, want)
		}
	}
}

// TestWholeFileShardsAreFileOrder: draining a whole-file generation of
// a fixed-stride container in Seq order replays the file, sorted or
// not, and never opens the BAIX.
func TestWholeFileShardsAreFileOrder(t *testing.T) {
	_, bamxPath, d := writeDataset(t, 700)
	bamzPath, shufPath, shuffled := writeVariants(t, bamxPath, d)
	for _, name := range []string{"data.baix", "shuf.baix"} {
		// A BAIX that does not parse: touching it would fail the run.
		if err := os.WriteFile(filepath.Join(filepath.Dir(bamxPath), name), []byte("not a BAIX"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		p    Provider
		want []sam.Record
	}{
		{"bamx", NewBAMXProvider(bamxPath), d.Records},
		{"bamz", NewBAMZProvider(bamzPath), d.Records},
		{"bamx unsorted", NewBAMXProvider(shufPath), shuffled},
	} {
		for _, target := range []int{1, 3, 16} {
			shards, err := tc.p.GenerateShards(Options{TargetShards: target})
			if err != nil {
				t.Fatalf("%s: GenerateShards(%d): %v", tc.name, target, err)
			}
			if len(shards) != target {
				t.Errorf("%s: %d shards at target %d", tc.name, len(shards), target)
			}
			h, _ := tc.p.Header()
			var rec sam.Record
			i := 0
			for _, sh := range shards {
				rr, err := tc.p.NewReader(sh)
				if err != nil {
					t.Fatal(err)
				}
				for {
					body, err := rr.NextBody()
					if err == io.EOF {
						break
					}
					if err == nil {
						err = bam.DecodeRecord(body, &rec, h)
					}
					if err != nil {
						t.Fatalf("%s shard %v: %v", tc.name, sh, err)
					}
					if i >= len(tc.want) || recordKey(&rec) != recordKey(&tc.want[i]) {
						t.Fatalf("%s target %d: record %d is %s, not the file's", tc.name, target, i, recordKey(&rec))
					}
					i++
				}
				rr.Close()
			}
			if i != len(tc.want) {
				t.Fatalf("%s target %d: %d records, want %d", tc.name, target, i, len(tc.want))
			}
		}
		if _, err := tc.p.GenerateShards(Options{Refs: []string{d.Header.Refs[0].Name}}); err == nil {
			t.Errorf("%s: a reference selection accepted a corrupt BAIX", tc.name)
		}
		tc.p.Close()
	}
}

// TestRegionSelection: Options.Region yields, from every provider, the
// records of one reference starting within the interval, in coordinate
// order, at any shard count.
func TestRegionSelection(t *testing.T) {
	bamPath, bamxPath, d := writeDataset(t, 2500)
	bamzPath, shufPath, _ := writeVariants(t, bamxPath, d)
	pamxPath := filepath.Join(filepath.Dir(bamPath), "data.pamx")
	if _, err := pamx.FromBAM(bamPath, pamxPath, pamx.Options{GroupRecords: 90}); err != nil {
		t.Fatal(err)
	}
	ref := d.Header.Refs[1]
	region := &Region{Ref: ref.Name, Beg: ref.Length / 5, End: ref.Length / 2}
	want := map[string]int{}
	for i := range d.Records {
		r := &d.Records[i]
		if !r.Unmapped() && r.RName == ref.Name && int(r.Pos)-1 >= region.Beg && int(r.Pos)-1 < region.End {
			want[recordKey(r)]++
		}
	}
	if len(want) == 0 {
		t.Fatal("region selects nothing")
	}
	for name, p := range map[string]Provider{
		"bam": NewBAMProvider(bamPath), "bamx": NewBAMXProvider(bamxPath), "bamz": NewBAMZProvider(bamzPath),
		"bamx unsorted": NewBAMXProvider(shufPath), "pamx": NewPAMXProvider(pamxPath),
	} {
		for _, target := range []int{1, 3, 8} {
			shards, err := p.GenerateShards(Options{TargetShards: target, Region: region})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, sh := range shards {
				if sh.Seq != i || sh.Unmapped() || sh.RefName != ref.Name || sh.Beg < region.Beg || sh.End > region.End {
					t.Fatalf("%s: region generation produced shard %d = %+v", name, i, sh)
				}
			}
			checkMultiset(t, fmt.Sprintf("%s region target %d", name, target), drainShards(t, p, shards), want)
		}
		if _, err := p.GenerateShards(Options{Region: &Region{Ref: "chrNope", End: 10}}); err == nil {
			t.Errorf("%s: unknown region reference did not error", name)
		}
		p.Close()
	}
	// A compressed file cannot rebuild a missing BAIX.
	os.Remove(filepath.Join(filepath.Dir(bamxPath), "data.baix"))
	if _, err := NewBAMZProvider(bamzPath).GenerateShards(Options{Region: region}); err == nil || !strings.Contains(err.Error(), "BAIX") {
		t.Errorf("BAMZ region without BAIX: %v", err)
	}
	p := NewBAMXProvider(bamxPath)
	defer p.Close()
	shards, err := p.GenerateShards(Options{TargetShards: 2, Region: region})
	if err != nil {
		t.Fatalf("BAMX region with a missing BAIX: %v", err)
	}
	checkMultiset(t, "bamx rebuilt index", drainShards(t, p, shards), want)
}

// TestGenerateShardsRefsSubset: a named-reference selection stays on
// those references and omits the tail.
func TestGenerateShardsRefsSubset(t *testing.T) {
	bamPath, bamxPath, d := writeDataset(t, 2000)
	ref := d.Header.Refs[0].Name
	want := map[string]int{}
	for i := range d.Records {
		if d.Records[i].RName == ref {
			want[recordKey(&d.Records[i])]++
		}
	}
	for _, p := range []Provider{NewBAMProvider(bamPath), NewBAMXProvider(bamxPath)} {
		shards, err := p.GenerateShards(Options{TargetShards: 6, Refs: []string{ref}})
		if err != nil {
			t.Fatalf("GenerateShards: %v", err)
		}
		for _, sh := range shards {
			if sh.Unmapped() || sh.RefName != ref {
				t.Fatalf("subset generation produced shard %v", sh)
			}
		}
		checkMultiset(t, "subset", drainShards(t, p, shards), want)
		if _, err := p.GenerateShards(Options{Refs: []string{"chrNope"}}); err == nil {
			t.Fatal("unknown reference did not error")
		}
		p.Close()
	}
}

// TestPartitionByBytes checks contiguity, completeness and balance.
func TestPartitionByBytes(t *testing.T) {
	shards := make([]Shard, 20)
	var total int64
	for i := range shards {
		shards[i] = Shard{Seq: i, Bytes: int64(1000 * (1 + i%5))}
		total += shards[i].Bytes
	}
	for _, n := range []int{1, 2, 3, 7, 20, 30} {
		groups := PartitionByBytes(shards, n)
		if len(groups) != n {
			t.Fatalf("n=%d: %d groups", n, len(groups))
		}
		seq := 0
		for g, grp := range groups {
			var bytes int64
			for _, sh := range grp {
				if sh.Seq != seq {
					t.Fatalf("n=%d group %d: shard Seq %d, want %d (not contiguous)", n, g, sh.Seq, seq)
				}
				seq++
				bytes += sh.Bytes
			}
			if n <= 20 && len(grp) > 0 && bytes > 2*total/int64(n)+5000 {
				t.Fatalf("n=%d group %d holds %d bytes of %d total", n, g, bytes, total)
			}
		}
		if seq != len(shards) {
			t.Fatalf("n=%d: %d shards distributed, want %d", n, seq, len(shards))
		}
	}
}

// TestShardCodecRoundTrip: the wire codec is lossless and rejects
// truncation.
func TestShardCodecRoundTrip(t *testing.T) {
	shards := []Shard{
		{Seq: 0, RefID: 2, RefName: "chr3", Beg: 16384, End: 197152, RecLo: 7, RecHi: 200, Bytes: 123456},
		{Seq: 1, RefID: -1, RecLo: 200, RecHi: 210, Bytes: 99},
		{},
	}
	data := EncodeShards(shards)
	got, err := DecodeShards(data)
	if err != nil {
		t.Fatalf("DecodeShards: %v", err)
	}
	if !reflect.DeepEqual(shards, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, shards)
	}
	for cut := 1; cut < len(data); cut++ {
		if dec, err := DecodeShards(data[:cut]); err == nil && len(dec) == len(shards) {
			t.Fatalf("truncation at %d bytes decoded fully", cut)
		}
	}
	if _, err := DecodeShards(nil); err == nil {
		t.Fatal("nil payload did not error")
	}
}

// TestScatter: every rank of a channel world receives a contiguous
// group and the union is the full list.
func TestScatter(t *testing.T) {
	shards := make([]Shard, 11)
	for i := range shards {
		shards[i] = Shard{Seq: i, RefName: "chr1", Beg: i * 100, End: (i + 1) * 100, Bytes: int64(100 + i)}
	}
	const ranks = 4
	gotBy := make([][]Shard, ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		var all []Shard
		if c.Rank() == 0 {
			all = shards
		}
		mine, err := Scatter(c, all)
		if err != nil {
			return err
		}
		gotBy[c.Rank()] = mine
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var union []Shard
	for _, g := range gotBy {
		union = append(union, g...)
	}
	if !reflect.DeepEqual(union, shards) {
		t.Fatalf("scattered union mismatch:\n got %+v\nwant %+v", union, shards)
	}
}

// TestForEach: the dynamic queue visits every shard exactly once, keeps
// the i-th result in the i-th slot, and propagates the first error.
func TestForEach(t *testing.T) {
	bamPath, _, _ := writeDataset(t, 1500)
	p := NewBAMProvider(bamPath)
	defer p.Close()
	shards, err := p.GenerateShards(Options{TargetShards: 8})
	if err != nil {
		t.Fatalf("GenerateShards: %v", err)
	}
	for _, workers := range []int{1, 3, 8} {
		counts := make([]int, len(shards))
		err := ForEach(p, shards, workers, func(i int, sh Shard, rr RecordReader) error {
			for {
				if _, err := rr.NextBody(); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
				counts[i]++
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: ForEach: %v", workers, err)
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != 1500 {
			t.Fatalf("workers=%d: drained %d records, want 1500", workers, total)
		}
	}
	wantErr := fmt.Errorf("boom")
	err = ForEach(p, shards, 4, func(i int, sh Shard, rr RecordReader) error {
		if i == 2 {
			return wantErr
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("ForEach error = %v, want %v", err, wantErr)
	}
}

// TestOpenPathProvider dispatches on extension, and a file with none of
// the known ones is told which a provider reads.
func TestOpenPathProvider(t *testing.T) {
	bamPath, bamxPath, d := writeDataset(t, 200)
	bamzPath, _, _ := writeVariants(t, bamxPath, d)
	if _, ok := OpenPathProvider(bamPath).(*BAMProvider); !ok {
		t.Fatal("BAM path did not open a BAMProvider")
	}
	if _, ok := OpenPathProvider(bamxPath).(*BAMXProvider); !ok {
		t.Fatal("BAMX path did not open a BAMXProvider")
	}
	if p, ok := OpenPathProvider(bamzPath).(*BAMXProvider); !ok || !p.compressed {
		t.Fatal("BAMZ path did not open a compressed BAMXProvider")
	}
	samPath := filepath.Join(t.TempDir(), "reads.sam")
	sf, err := os.Create(samPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteSAM(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	p := OpenPathProvider(samPath)
	defer p.Close()
	_, herr := p.Header()
	_, gerr := p.GenerateShards(Options{})
	for _, err := range []error{herr, gerr} {
		if err == nil {
			t.Fatal("a SAM file opened as a provider")
		}
		for _, ext := range Exts() {
			if !strings.Contains(err.Error(), ext) {
				t.Errorf("error %q does not name %s", err, ext)
			}
		}
	}
}
