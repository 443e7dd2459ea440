package flagstat

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"parseq/internal/sam"
	"parseq/internal/simdata"
)

func TestAddCountsFlags(t *testing.T) {
	lines := []string{
		"a\t99\tchr1\t10\t30\t4M\t=\t20\t14\tACGT\tIIII",   // paired, proper, read1, mate mapped
		"b\t147\tchr1\t20\t30\t4M\t=\t10\t-14\tACGT\tIIII", // paired, proper, read2, reverse
		"c\t4\t*\t0\t0\t*\t*\t0\t0\tACGT\tIIII",            // unmapped
		"d\t256\tchr1\t30\t0\t4M\t*\t0\t0\tACGT\tIIII",     // secondary
		"e\t1024\tchr1\t40\t30\t4M\t*\t0\t0\tACGT\tIIII",   // duplicate
		"f\t512\tchr1\t50\t30\t4M\t*\t0\t0\tACGT\tIIII",    // QC fail
		"g\t2048\tchr1\t60\t30\t4M\t*\t0\t0\tACGT\tIIII",   // supplementary
		"h\t73\tchr1\t70\t30\t4M\t*\t0\t0\tACGT\tIIII",     // paired, read1, mate unmapped
	}
	var recs []sam.Record
	for _, l := range lines {
		r, err := sam.ParseRecord(l)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	s := Of(recs)
	if s.Total != 8 {
		t.Errorf("Total = %d", s.Total)
	}
	if s.Mapped != 7 {
		t.Errorf("Mapped = %d", s.Mapped)
	}
	if s.Paired != 3 {
		t.Errorf("Paired = %d", s.Paired)
	}
	if s.ProperlyPaired != 2 {
		t.Errorf("ProperlyPaired = %d", s.ProperlyPaired)
	}
	if s.Read1 != 2 || s.Read2 != 1 {
		t.Errorf("Read1/2 = %d/%d", s.Read1, s.Read2)
	}
	if s.Secondary != 1 || s.Supplementary != 1 || s.Duplicates != 1 || s.QCFail != 1 {
		t.Errorf("flag counters = %+v", s)
	}
	if s.MateMapped != 2 {
		t.Errorf("MateMapped = %d", s.MateMapped)
	}
}

func TestMergeEqualsWhole(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(500))
	whole := Of(d.Records)
	var merged Stats
	for _, part := range [][2]int{{0, 100}, {100, 350}, {350, 500}} {
		s := Of(d.Records[part[0]:part[1]])
		merged.Merge(s)
	}
	if merged != whole {
		t.Errorf("merged %+v != whole %+v", merged, whole)
	}
}

// setEngineWorkers sets GOMAXPROCS so that each of ranks ranks reads
// its share with workers batch line engine workers, until the test ends.
func setEngineWorkers(t *testing.T, workers, ranks int) {
	t.Helper()
	old := runtime.GOMAXPROCS(workers * ranks)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	if got := sam.AdaptiveWorkers(ranks); got != workers {
		t.Fatalf("GOMAXPROCS %d gives %d engine workers per rank, want %d", workers*ranks, got, workers)
	}
}

// TestSAMFileParallelMatchesSequential: the tally over a SAM file of
// several engine batches per rank equals the in-memory one at every
// rank count and engine worker count.
func TestSAMFileParallelMatchesSequential(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(6000))
	dir := t.TempDir()
	samPath := filepath.Join(dir, "f.sam")
	f, err := os.Create(samPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteSAM(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	want := Of(d.Records)
	for _, workers := range []int{1, 4} {
		for _, cores := range []int{1, 2, 3, 7} {
			setEngineWorkers(t, workers, cores)
			got, err := SAMFile(samPath, cores, nil)
			if err != nil {
				t.Fatalf("SAMFile(cores=%d, workers=%d): %v", cores, workers, err)
			}
			if got != want {
				t.Errorf("cores=%d workers=%d: %+v != %+v", cores, workers, got, want)
			}
		}
	}
}

func TestSAMFileMissing(t *testing.T) {
	if _, err := SAMFile("/does/not/exist.sam", 2, nil); err == nil {
		t.Error("missing file accepted")
	}
}

func TestFormat(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(200))
	s := Of(d.Records)
	out := s.Format()
	for _, want := range []string{"in total", "mapped", "properly paired", "read1", "read2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	var empty Stats
	if !strings.Contains(empty.Format(), "N/A") {
		t.Error("empty stats should render N/A percentages")
	}
}
