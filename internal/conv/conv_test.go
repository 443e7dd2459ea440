package conv

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"parseq/internal/bam"
	"parseq/internal/bamx"
	"parseq/internal/formats"
	"parseq/internal/partition"
	"parseq/internal/sam"
	"parseq/internal/shard"
	"parseq/internal/simdata"
)

// writeDataset materialises a synthetic dataset as SAM and BAM files in a
// temp dir and returns their paths.
func writeDataset(t testing.TB, n int) (string, string, *simdata.Dataset) {
	t.Helper()
	d := simdata.Generate(simdata.DefaultConfig(n))
	dir := t.TempDir()
	samPath := filepath.Join(dir, "in.sam")
	bamPath := filepath.Join(dir, "in.bam")
	sf, err := os.Create(samPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteSAM(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	bf, err := os.Create(bamPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBAM(bf); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	return samPath, bamPath, d
}

// concatFiles concatenates the per-rank output files in rank order.
func concatFiles(t testing.TB, files []string) string {
	t.Helper()
	var b bytes.Buffer
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("reading %s: %v", f, err)
		}
		b.Write(data)
	}
	return b.String()
}

// expected computes the single-threaded reference conversion.
func expected(t testing.TB, d *simdata.Dataset, format string) string {
	t.Helper()
	enc, err := formats.New(format)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	out = append(out, enc.Header(d.Header)...)
	for i := range d.Records {
		out, err = enc.Encode(out, &d.Records[i], d.Header)
		if err != nil {
			t.Fatal(err)
		}
	}
	return string(out)
}

func TestParseRegion(t *testing.T) {
	cases := []struct {
		in   string
		want Region
	}{
		{"chr1", Region{RName: "chr1", Beg: 1}},
		{"chr1:100-200", Region{RName: "chr1", Beg: 100, End: 200}},
		{"chr1:100-", Region{RName: "chr1", Beg: 100}},
		{"chrX:5", Region{RName: "chrX", Beg: 5, End: 5}},
	}
	for _, tc := range cases {
		got, err := ParseRegion(tc.in)
		if err != nil {
			t.Errorf("ParseRegion(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseRegion(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", ":5-10", "chr1:x-10", "chr1:10-x", "chr1:20-10", "chr1:99999999999-",
		"chr1:", "chr1:-5", "chr1:+5-10", "chr1:5-10-20", "chr1:5_0-60", "chr1:2147483648"} {
		if _, err := ParseRegion(bad); err == nil {
			t.Errorf("ParseRegion(%q) succeeded", bad)
		}
	}
}

// TestRegionBound pins the one 1-based-inclusive → zero-based half-open
// conversion, on the interval itself and on the records every provider
// then selects: one starting at Beg and one at End are in, one at End+1
// (and one before Beg) is out.
func TestRegionBound(t *testing.T) {
	h := sam.NewHeader()
	h.AddReference("chr1", 5000)
	h.AddReference("chr2", 700)
	for _, tc := range []struct {
		in   Region
		want shard.Region
	}{
		{Region{RName: "chr1", Beg: 100, End: 200}, shard.Region{Ref: "chr1", Beg: 99, End: 200}},
		{Region{RName: "chr1", Beg: 1, End: 1}, shard.Region{Ref: "chr1", Beg: 0, End: 1}},
		{Region{RName: "chr1", Beg: 0, End: 10}, shard.Region{Ref: "chr1", Beg: 0, End: 10}},
		{Region{RName: "chr2", Beg: 1}, shard.Region{Ref: "chr2", Beg: 0, End: 700}},
		{Region{RName: "chr2", Beg: 300}, shard.Region{Ref: "chr2", Beg: 299, End: 700}},
	} {
		got, err := tc.in.bound(h)
		if err != nil || *got != tc.want {
			t.Errorf("%v.bound = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	if _, err := (Region{RName: "chrNope", Beg: 1}).bound(h); err == nil {
		t.Error("bound resolved a reference the header lacks")
	}

	// Four records around chr1:100-200, through every container.
	var recs []sam.Record
	for _, pos := range []int32{99, 100, 200, 201} {
		recs = append(recs, sam.Record{
			QName: fmt.Sprintf("at%d", pos), RName: "chr1", Pos: pos, MapQ: 30,
			Cigar: sam.Cigar{sam.NewCigarOp(sam.CigarMatch, 4)}, RNext: "*", Seq: "ACGT", Qual: "IIII",
		})
	}
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	bf, err := os.Create(path("r.bam"))
	if err != nil {
		t.Fatal(err)
	}
	bw, err := bam.NewWriter(bf, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := bw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	if _, err := PreprocessBAMFile(path("r.bam"), path("r.bamx"), path("r.baix"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := CompressBAMXFile(path("r.bamx"), path("r.bamz"), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Rewrite(path("r.bam"), path("r.pamx")); err != nil {
		t.Fatal(err)
	}
	// r.bam has no .bai, so it is one stream shard; ri.bam has one.
	raw, err := os.ReadFile(path("r.bam"))
	if err != nil {
		t.Fatal(err)
	}
	var bai bytes.Buffer
	if err := bam.WriteIndexFile(bytes.NewReader(raw), &bai); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"ri.bam": raw, "ri.bam.bai": bai.Bytes()} {
		if err := os.WriteFile(path(name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"r.bam", "ri.bam", "r.bamx", "r.bamz", "r.pamx"} {
		res, err := ConvertIndexed(path(name), "", Options{
			Format: "bed", Cores: 2, OutDir: t.TempDir(), Region: &Region{RName: "chr1", Beg: 100, End: 200},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := concatFiles(t, res.Files)
		for _, in := range []string{"at100", "at200"} {
			if !strings.Contains(got, in) {
				t.Errorf("%s: region chr1:100-200 dropped %s:\n%s", name, in, got)
			}
		}
		for _, out := range []string{"at99", "at201"} {
			if strings.Contains(got, out) {
				t.Errorf("%s: region chr1:100-200 kept %s:\n%s", name, out, got)
			}
		}
	}
}

func TestRegionString(t *testing.T) {
	if got := (Region{RName: "chr1", Beg: 5, End: 10}).String(); got != "chr1:5-10" {
		t.Errorf("String = %q", got)
	}
	if got := (Region{RName: "chr1", Beg: 5}).String(); got != "chr1:5-" {
		t.Errorf("open String = %q", got)
	}
}

func TestConvertSAMSequentialMatchesReference(t *testing.T) {
	samPath, _, d := writeDataset(t, 300)
	for _, format := range formats.Names() {
		res, err := ConvertSAM(samPath, Options{
			Format: format, Cores: 1, OutDir: t.TempDir(), OutPrefix: "t",
		})
		if err != nil {
			t.Fatalf("ConvertSAM(%s): %v", format, err)
		}
		got := concatFiles(t, res.Files)
		if want := expected(t, d, format); got != want {
			t.Errorf("%s conversion differs from reference (got %d bytes, want %d)",
				format, len(got), len(want))
		}
		if res.Stats.Records != 300 {
			t.Errorf("%s Records = %d, want 300", format, res.Stats.Records)
		}
	}
}

func TestConvertSAMParallelMatchesSequential(t *testing.T) {
	samPath, _, d := writeDataset(t, 500)
	want := expected(t, d, "bed")
	for _, cores := range []int{2, 3, 8} {
		res, err := ConvertSAM(samPath, Options{
			Format: "bed", Cores: cores, OutDir: t.TempDir(), OutPrefix: "t",
		})
		if err != nil {
			t.Fatalf("ConvertSAM(cores=%d): %v", cores, err)
		}
		if len(res.Files) != cores {
			t.Fatalf("files = %d, want %d", len(res.Files), cores)
		}
		if got := concatFiles(t, res.Files); got != want {
			t.Errorf("cores=%d output differs from sequential", cores)
		}
		if res.Stats.Records != 500 {
			t.Errorf("cores=%d Records = %d", cores, res.Stats.Records)
		}
		if res.Stats.BytesOut == 0 || res.Stats.BytesIn == 0 {
			t.Errorf("cores=%d zero byte counters: %+v", cores, res.Stats)
		}
	}
}

func TestConvertSAMRejectsRegion(t *testing.T) {
	samPath, _, _ := writeDataset(t, 10)
	_, err := ConvertSAM(samPath, Options{
		Format: "bed", Region: &Region{RName: "chr1", Beg: 1, End: 100},
		OutDir: t.TempDir(),
	})
	if err == nil {
		t.Error("ConvertSAM with region succeeded")
	}
}

func TestConvertSAMMissingFile(t *testing.T) {
	if _, err := ConvertSAM("/does/not/exist.sam", Options{Format: "bed", OutDir: t.TempDir()}); err == nil {
		t.Error("missing input succeeded")
	}
}

func TestConvertSAMBadFormat(t *testing.T) {
	samPath, _, _ := writeDataset(t, 10)
	if _, err := ConvertSAM(samPath, Options{Format: "xml", OutDir: t.TempDir()}); err == nil {
		t.Error("unknown format succeeded")
	}
}

func TestConvertBAMSequentialMatchesReference(t *testing.T) {
	_, bamPath, d := writeDataset(t, 300)
	res, err := ConvertBAMSequential(bamPath, Options{
		Format: "sam", Cores: 1, OutDir: t.TempDir(), OutPrefix: "t",
	})
	if err != nil {
		t.Fatalf("ConvertBAMSequential: %v", err)
	}
	got := concatFiles(t, res.Files)
	if want := expected(t, d, "sam"); got != want {
		t.Error("BAM→SAM sequential conversion differs from reference")
	}
}

func TestPreprocessAndConvertBAMX(t *testing.T) {
	_, bamPath, d := writeDataset(t, 400)
	dir := t.TempDir()
	bamxPath := filepath.Join(dir, "in.bamx")
	baixPath := filepath.Join(dir, "in.baix")
	pre, err := PreprocessBAMFile(bamPath, bamxPath, baixPath, 0)
	if err != nil {
		t.Fatalf("PreprocessBAMFile: %v", err)
	}
	if pre.Duration <= 0 {
		t.Error("preprocessing duration not recorded")
	}
	for _, format := range []string{"bed", "bedgraph", "fasta", "sam"} {
		for _, cores := range []int{1, 4} {
			res, err := ConvertBAMX(bamxPath, baixPath, Options{
				Format: format, Cores: cores, OutDir: t.TempDir(), OutPrefix: "t",
			})
			if err != nil {
				t.Fatalf("ConvertBAMX(%s, cores=%d): %v", format, cores, err)
			}
			got := concatFiles(t, res.Files)
			if want := expected(t, d, format); got != want {
				t.Errorf("%s cores=%d BAMX conversion differs from reference", format, cores)
			}
		}
	}
}

func TestConvertBAMXPartial(t *testing.T) {
	_, bamPath, d := writeDataset(t, 600)
	dir := t.TempDir()
	bamxPath := filepath.Join(dir, "in.bamx")
	baixPath := filepath.Join(dir, "in.baix")
	if _, err := PreprocessBAMFile(bamPath, bamxPath, baixPath, 0); err != nil {
		t.Fatal(err)
	}
	region := Region{RName: "chr1", Beg: 1, End: 100000}
	res, err := ConvertBAMX(bamxPath, baixPath, Options{
		Format: "sam", Cores: 3, OutDir: t.TempDir(), OutPrefix: "t",
		Region: &region,
	})
	if err != nil {
		t.Fatalf("partial ConvertBAMX: %v", err)
	}
	got := concatFiles(t, res.Files)
	// Reference: records starting within the region, in BAIX (position)
	// order, prefixed by the SAM header.
	enc, _ := formats.New("sam")
	var want []byte
	want = append(want, enc.Header(d.Header)...)
	var selected []sam.Record
	for i := range d.Records {
		r := d.Records[i]
		if !r.Unmapped() && r.RName == region.RName && r.Pos >= region.Beg && r.Pos <= region.End {
			selected = append(selected, r)
		}
	}
	sort.SliceStable(selected, func(i, j int) bool { return selected[i].Pos < selected[j].Pos })
	for i := range selected {
		var err error
		want, err = enc.Encode(want, &selected[i], d.Header)
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(selected) == 0 {
		t.Fatal("test region selected no records; enlarge it")
	}
	if got != string(want) {
		t.Errorf("partial conversion differs: got %d bytes, want %d (%d records)",
			len(got), len(want), len(selected))
	}
	if res.Stats.Records != int64(len(selected)) {
		t.Errorf("Records = %d, want %d", res.Stats.Records, len(selected))
	}
}

func TestConvertBAMXPartialWithoutBAIXFallsBack(t *testing.T) {
	_, bamPath, _ := writeDataset(t, 100)
	dir := t.TempDir()
	bamxPath := filepath.Join(dir, "in.bamx")
	if _, err := PreprocessBAMFile(bamPath, bamxPath, filepath.Join(dir, "in.baix"), 0); err != nil {
		t.Fatal(err)
	}
	// Point at a missing BAIX: index is rebuilt by scanning.
	res, err := ConvertBAMX(bamxPath, filepath.Join(dir, "missing.baix"), Options{
		Format: "bed", Cores: 2, OutDir: t.TempDir(), OutPrefix: "t",
		Region: &Region{RName: "chr2", Beg: 1},
	})
	if err != nil {
		t.Fatalf("ConvertBAMX without BAIX: %v", err)
	}
	if res.Stats.Records == 0 {
		t.Error("no records converted via rebuilt index")
	}
}

func TestConvertBAMXUnknownRegionRef(t *testing.T) {
	_, bamPath, _ := writeDataset(t, 50)
	dir := t.TempDir()
	bamxPath := filepath.Join(dir, "in.bamx")
	baixPath := filepath.Join(dir, "in.baix")
	if _, err := PreprocessBAMFile(bamPath, bamxPath, baixPath, 0); err != nil {
		t.Fatal(err)
	}
	_, err := ConvertBAMX(bamxPath, baixPath, Options{
		Format: "bed", OutDir: t.TempDir(),
		Region: &Region{RName: "chrNope", Beg: 1},
	})
	if err == nil {
		t.Error("unknown region reference succeeded")
	}
}

func TestPreprocessedSAMConverterMatchesReference(t *testing.T) {
	samPath, _, d := writeDataset(t, 400)
	for _, preCores := range []int{1, 3} {
		outDir := t.TempDir()
		res, err := ConvertSAMPreprocessed(samPath, preCores, Options{
			Format: "fasta", Cores: 2, OutDir: outDir, OutPrefix: "t",
		})
		if err != nil {
			t.Fatalf("ConvertSAMPreprocessed(M=%d): %v", preCores, err)
		}
		// M BAMX files × N ranks of output files.
		if len(res.Files) != preCores*2 {
			t.Errorf("files = %d, want %d", len(res.Files), preCores*2)
		}
		if res.Stats.PreprocessTime <= 0 {
			t.Error("PreprocessTime not recorded")
		}
		got := concatFiles(t, res.Files)
		// The fasta encoder writes no header, so concatenation in
		// (M, rank) order equals the sequential reference.
		if want := expected(t, d, "fasta"); got != want {
			t.Errorf("M=%d preprocessed conversion differs from reference", preCores)
		}
	}
}

func TestPreprocessSAMParallelProducesValidBAMX(t *testing.T) {
	samPath, _, d := writeDataset(t, 300)
	outDir := t.TempDir()
	pre, err := PreprocessSAMParallel(samPath, Options{OutDir: outDir, OutPrefix: "pp", Cores: 4})
	if err != nil {
		t.Fatalf("PreprocessSAMParallel: %v", err)
	}
	if len(pre.BAMXFiles) != 4 || len(pre.BAIXFiles) != 4 {
		t.Fatalf("file counts = %d/%d", len(pre.BAMXFiles), len(pre.BAIXFiles))
	}
	if pre.Records != 300 {
		t.Errorf("Records = %d, want 300", pre.Records)
	}
	// Converting the shards sequentially reproduces the dataset.
	res, err := ConvertPreprocessed(pre.BAMXFiles, pre.BAIXFiles, Options{
		Format: "fastq", Cores: 1, OutDir: t.TempDir(), OutPrefix: "t",
	})
	if err != nil {
		t.Fatal(err)
	}
	got := concatFiles(t, res.Files)
	if want := expected(t, d, "fastq"); got != want {
		t.Error("sharded conversion differs from reference")
	}
}

// TestPreprocessSAMParallelMatchesBuildFromRecords: every rank's .bamx
// and .baix equal bamx.BuildFromRecords over that rank's partition
// records, at every rank and parse-worker count. The file's last record
// carries the widest read name, CIGAR, sequence and aux, so the last
// rank's caps grow only on its final record.
func TestPreprocessSAMParallelMatchesBuildFromRecords(t *testing.T) {
	samPath, _, d := writeDataset(t, 600)
	const cigarOps, seqLen = 400, 1200 // "5M1I" × 200
	wide := fmt.Sprintf("%s\t0\t%s\t1\t60\t%s\t*\t0\t0\t%s\t%s\tXZ:Z:%s\n",
		strings.Repeat("q", 200), d.Header.Refs[0].Name, strings.Repeat("5M1I", cigarOps/2),
		strings.Repeat("ACGTAC", seqLen/6), strings.Repeat("I", seqLen), strings.Repeat("z", 500))
	f, err := os.OpenFile(samPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(wide); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := os.ReadFile(samPath)
	if err != nil {
		t.Fatal(err)
	}
	in, err := os.Open(samPath)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	h, dataStart, err := sam.ScanHeader(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{1, 2, 3, 5} {
		ranges, err := partition.SAMForward(in, dataStart, int64(len(data)), cores)
		if err != nil {
			t.Fatal(err)
		}
		// Each rank's reference pair, built from its partition's records.
		want := make([][2][]byte, cores)
		for r, br := range ranges {
			var recs []sam.Record
			for _, line := range strings.Split(string(data[br.Start:br.End]), "\n") {
				if line == "" {
					continue
				}
				var rec sam.Record
				if err := sam.ParseRecordIntoBytes(&rec, []byte(line)); err != nil {
					t.Fatal(err)
				}
				recs = append(recs, rec)
			}
			var x, ix bytes.Buffer
			idx, err := bamx.BuildFromRecords(&x, h, recs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := idx.WriteTo(&ix); err != nil {
				t.Fatal(err)
			}
			want[r] = [2][]byte{x.Bytes(), ix.Bytes()}
		}
		if last := want[cores-1][0]; !bytes.Contains(last, []byte(strings.Repeat("z", 500))) {
			t.Fatalf("cores=%d: the wide record is not in the last rank's file", cores)
		}
		for _, workers := range []int{1, 4} {
			dir := t.TempDir()
			pre, err := PreprocessSAMParallel(samPath, Options{Cores: cores, ParseWorkers: workers, OutDir: dir, OutPrefix: "pp"})
			if err != nil {
				t.Fatalf("cores=%d workers=%d: %v", cores, workers, err)
			}
			if pre.Records != int64(len(d.Records)+1) {
				t.Errorf("cores=%d workers=%d: Records = %d, want %d", cores, workers, pre.Records, len(d.Records)+1)
			}
			for r := range cores {
				for i, path := range []string{pre.BAMXFiles[r], pre.BAIXFiles[r]} {
					if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want[r][i]) {
						t.Errorf("cores=%d workers=%d: %s differs from BuildFromRecords over rank %d's records (err %v)",
							cores, workers, filepath.Base(path), r, err)
					}
				}
			}
			if left, _ := os.ReadDir(dir); len(left) != 2*cores {
				t.Errorf("cores=%d workers=%d: %d files in the output directory, want %d", cores, workers, len(left), 2*cores)
			}
		}
	}
}

func TestConvertPreprocessedEmptyInput(t *testing.T) {
	if _, err := ConvertPreprocessed(nil, nil, Options{Format: "bed", OutDir: t.TempDir()}); err == nil {
		t.Error("ConvertPreprocessed with no files succeeded")
	}
}

func TestStatsEmittedExcludesSkipped(t *testing.T) {
	// BED skips unmapped records; Emitted must be less than Records.
	samPath, _, d := writeDataset(t, 1000)
	unmapped := 0
	for i := range d.Records {
		if d.Records[i].Unmapped() {
			unmapped++
		}
	}
	if unmapped == 0 {
		t.Skip("dataset has no unmapped records")
	}
	res, err := ConvertSAM(samPath, Options{Format: "bed", Cores: 2, OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Emitted != res.Stats.Records-int64(unmapped) {
		t.Errorf("Emitted = %d, Records = %d, unmapped = %d",
			res.Stats.Emitted, res.Stats.Records, unmapped)
	}
}

func TestScanHeaderHeaderless(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "h.sam")
	line := "r1\t0\tchr1\t1\t30\t4M\t*\t0\t0\tACGT\tIIII\n"
	if err := os.WriteFile(p, []byte("@SQ\tSN:chr1\tLN:100\n"+line), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, off, err := sam.ScanHeader(f)
	if err != nil {
		t.Fatal(err)
	}
	if off != int64(len("@SQ\tSN:chr1\tLN:100\n")) {
		t.Errorf("offset = %d", off)
	}
	if len(h.Refs) != 1 {
		t.Errorf("refs = %d", len(h.Refs))
	}
}

func TestConvertSAMManyMoreCoresThanRecords(t *testing.T) {
	samPath, _, d := writeDataset(t, 5)
	res, err := ConvertSAM(samPath, Options{Format: "sam", Cores: 16, OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := concatFiles(t, res.Files), expected(t, d, "sam"); got != want {
		t.Error("over-partitioned conversion differs")
	}
}

func TestOutputFileNaming(t *testing.T) {
	samPath, _, _ := writeDataset(t, 20)
	dir := t.TempDir()
	res, err := ConvertSAM(samPath, Options{Format: "bed", Cores: 2, OutDir: dir, OutPrefix: "myrun"})
	if err != nil {
		t.Fatal(err)
	}
	for rank, f := range res.Files {
		base := filepath.Base(f)
		if !strings.HasPrefix(base, "myrun_p") || !strings.HasSuffix(base, ".bed") {
			t.Errorf("rank %d file = %q", rank, base)
		}
	}
}
