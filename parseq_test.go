package parseq

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSample materialises a small dataset for the facade tests.
func writeSample(t *testing.T, n int) (samPath, bamPath string, d *Dataset) {
	t.Helper()
	d = GenerateDataset(DefaultDatasetConfig(n))
	dir := t.TempDir()
	samPath = filepath.Join(dir, "s.sam")
	bamPath = filepath.Join(dir, "s.bam")
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

func TestFormats(t *testing.T) {
	fs := Formats()
	if len(fs) != 7 {
		t.Fatalf("Formats = %v", fs)
	}
}

func TestEndToEndSAMConversion(t *testing.T) {
	samPath, _, _ := writeSample(t, 200)
	res, err := ConvertSAM(samPath, Options{
		Format: "bed", Cores: 4, OutDir: t.TempDir(), OutPrefix: "api",
	})
	if err != nil {
		t.Fatalf("ConvertSAM: %v", err)
	}
	if res.Stats.Records != 200 || len(res.Files) != 4 {
		t.Errorf("Result = %+v", res.Stats)
	}
}

func TestEndToEndBAMPipeline(t *testing.T) {
	_, bamPath, _ := writeSample(t, 200)
	dir := t.TempDir()
	bamx := filepath.Join(dir, "d.bamx")
	baix := filepath.Join(dir, "d.baix")
	pre, err := PreprocessBAM(bamPath, bamx, baix)
	if err != nil {
		t.Fatalf("PreprocessBAM: %v", err)
	}
	if len(pre.BAMXFiles) != 1 {
		t.Fatalf("pre = %+v", pre)
	}
	region, err := ParseRegion("chr1:1-100000")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ConvertBAMX(bamx, baix, Options{
		Format: "sam", Cores: 2, OutDir: dir, OutPrefix: "partial",
		Region: &region,
	})
	if err != nil {
		t.Fatalf("ConvertBAMX: %v", err)
	}
	if res.Stats.Records == 0 {
		t.Error("partial conversion selected nothing")
	}
}

func TestEndToEndPreprocessedSAM(t *testing.T) {
	samPath, _, _ := writeSample(t, 150)
	res, err := ConvertSAMPreprocessed(samPath, 2, Options{
		Format: "fastq", Cores: 2, OutDir: t.TempDir(), OutPrefix: "pp",
	})
	if err != nil {
		t.Fatalf("ConvertSAMPreprocessed: %v", err)
	}
	if len(res.Files) != 4 { // M=2 × N=2
		t.Errorf("files = %d, want 4", len(res.Files))
	}
}

func TestStatisticsFacade(t *testing.T) {
	h := GenerateHistogram(2000, 1)
	p := NLMeansParams{R: 10, L: 3, Sigma: 10}
	seq, err := Denoise(h, p)
	if err != nil {
		t.Fatal(err)
	}
	par, err := DenoiseParallel(h, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{2, 4} {
		got, err := DenoiseParallel(h, p, cores)
		if err != nil {
			t.Fatal(err)
		}
		for i := range par {
			if got[i] != par[i] {
				t.Fatalf("parallel on %d cores differs from 1 core at %d", cores, i)
			}
		}
	}
	dist, err := DenoiseDistributed(h, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if diff := seq[i] - par[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("parallel differs at %d", i)
		}
		if diff := seq[i] - dist[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("distributed differs at %d", i)
		}
	}

	sims := GenerateSimulations(8, 2000, 2)
	seqFDR, err := FDR(h, sims, 2)
	if err != nil {
		t.Fatal(err)
	}
	parFDR, err := FDRParallel(h, sims, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seqFDR != parFDR {
		t.Errorf("FDR %g vs parallel %g", seqFDR, parFDR)
	}
	sweep, err := FDRSweep(h, sims, []float64{1, 2, 4})
	if err != nil || len(sweep) != 3 {
		t.Errorf("FDRSweep = %v, %v", sweep, err)
	}
}

func TestCoverageFacade(t *testing.T) {
	_, _, d := writeSample(t, 200)
	h, err := Coverage(d.Records, d.Header, "chr1", 25)
	if err != nil {
		t.Fatalf("Coverage: %v", err)
	}
	if len(h.Bins) == 0 {
		t.Error("empty histogram")
	}
}

func TestExperimentFacade(t *testing.T) {
	ids := Experiments()
	if len(ids) != 9 {
		t.Fatalf("Experiments = %v", ids)
	}
	sc := ExperimentScale{Reads: 500, Bins: 1000, Sims: 5, TmpDir: t.TempDir(), KeepTmp: true}
	var buf bytes.Buffer
	if err := RunExperiment(&buf, "fig6", sc); err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if !strings.Contains(buf.String(), "FIG6") {
		t.Errorf("output = %q", buf.String())
	}
	if err := RunExperiment(&buf, "nope", sc); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestSortFlagstatCoverageFacade(t *testing.T) {
	// Unsorted dataset → sort → index-ready BAM; plus parallel flagstat
	// and coverage over the SAM.
	cfg := DefaultDatasetConfig(300)
	cfg.Sorted = false
	d := GenerateDataset(cfg)
	dir := t.TempDir()
	samPath := filepath.Join(dir, "u.sam")
	f, err := os.Create(samPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteSAM(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sorted := filepath.Join(dir, "s.bam")
	n, err := SortSAMToBAM(samPath, sorted, SortOptions{ChunkRecords: 64, Cores: 2})
	if err != nil {
		t.Fatalf("SortSAMToBAM: %v", err)
	}
	if n != 300 {
		t.Errorf("sorted %d records", n)
	}
	// Sorted output preprocesses and partially converts.
	bamx := filepath.Join(dir, "s.bamx")
	baix := filepath.Join(dir, "s.baix")
	if _, err := PreprocessBAM(sorted, bamx, baix); err != nil {
		t.Fatalf("PreprocessBAM over sorted output: %v", err)
	}

	stats, err := Flagstat(samPath, 3)
	if err != nil {
		t.Fatalf("Flagstat: %v", err)
	}
	if stats.Total != 300 {
		t.Errorf("Flagstat Total = %d", stats.Total)
	}

	cov, err := CoverageParallel(samPath, "chr1", 25, 3)
	if err != nil {
		t.Fatalf("CoverageParallel: %v", err)
	}
	want, err := Coverage(d.Records, d.Header, "chr1", 25)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cov.Bins {
		if cov.Bins[i] != want.Bins[i] {
			t.Fatalf("bin %d = %g, want %g", i, cov.Bins[i], want.Bins[i])
		}
	}
}

func TestCompressedPipelineFacade(t *testing.T) {
	_, bamPath, _ := writeSample(t, 150)
	dir := t.TempDir()
	bamx := filepath.Join(dir, "c.bamx")
	baix := filepath.Join(dir, "c.baix")
	if _, err := PreprocessBAM(bamPath, bamx, baix); err != nil {
		t.Fatal(err)
	}
	bamz := filepath.Join(dir, "c.bamz")
	n, err := CompressBAMX(bamx, bamz, 32)
	if err != nil {
		t.Fatalf("CompressBAMX: %v", err)
	}
	if n != 150 {
		t.Errorf("compressed %d records", n)
	}
	res, err := ConvertBAMZ(bamz, baix, Options{
		Format: "bed", Cores: 2, OutDir: dir, OutPrefix: "z",
	})
	if err != nil {
		t.Fatalf("ConvertBAMZ: %v", err)
	}
	if res.Stats.Records != 150 {
		t.Errorf("Records = %d", res.Stats.Records)
	}
}

func TestSAMToBAMFacade(t *testing.T) {
	samPath, _, _ := writeSample(t, 120)
	dir := t.TempDir()
	res, err := ConvertSAMToBAM(samPath, Options{Cores: 3, OutDir: dir, OutPrefix: "b"})
	if err != nil {
		t.Fatalf("ConvertSAMToBAM: %v", err)
	}
	merged := filepath.Join(dir, "all.bam")
	n, err := MergeBAMShards(res.Files, merged)
	if err != nil {
		t.Fatalf("MergeBAMShards: %v", err)
	}
	if n != 120 {
		t.Errorf("merged %d records", n)
	}
}

func TestPeaksFacade(t *testing.T) {
	h := GenerateHistogram(3000, 5)
	sims := GenerateSimulations(15, 3000, 6)
	ps, pt, estimate, err := CallPeaks(h, sims, []float64{0, 1, 3}, PeakOptions{MinWidth: 2})
	if err != nil {
		t.Fatalf("CallPeaks: %v", err)
	}
	if len(ps) == 0 {
		t.Error("no peaks on peaked data")
	}
	if pt < 0 || estimate < 0 {
		t.Errorf("pt=%g estimate=%g", pt, estimate)
	}
}
