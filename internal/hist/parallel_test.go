package hist

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"parseq/internal/sam"
	"parseq/internal/simdata"
)

func writeSAMFile(t testing.TB, n int) (string, *simdata.Dataset) {
	t.Helper()
	d := simdata.Generate(simdata.DefaultConfig(n))
	path := filepath.Join(t.TempDir(), "h.sam")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteSAM(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, d
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

// TestFromSAMParallelMatchesSequential: the histogram over a SAM file
// of several engine batches per rank has the in-memory one's bins at
// every rank count and engine worker count.
func TestFromSAMParallelMatchesSequential(t *testing.T) {
	path, d := writeSAMFile(t, 6000)
	want, err := Coverage(d.Records, d.Header, "chr1", 25)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for _, cores := range []int{1, 2, 3, 5} {
			setEngineWorkers(t, workers, cores)
			got, err := FromSAMParallel(path, "chr1", 25, cores, nil)
			if err != nil {
				t.Fatalf("FromSAMParallel(cores=%d, workers=%d): %v", cores, workers, err)
			}
			if len(got.Bins) != len(want.Bins) {
				t.Fatalf("cores=%d workers=%d: bins %d vs %d", cores, workers, len(got.Bins), len(want.Bins))
			}
			for i := range got.Bins {
				if got.Bins[i] != want.Bins[i] {
					t.Fatalf("cores=%d workers=%d: bin %d = %g, want %g", cores, workers, i, got.Bins[i], want.Bins[i])
				}
			}
		}
	}
}

func TestFromSAMParallelErrors(t *testing.T) {
	path, _ := writeSAMFile(t, 20)
	if _, err := FromSAMParallel(path, "chrNope", 25, 2, nil); err == nil {
		t.Error("unknown reference accepted")
	}
	if _, err := FromSAMParallel("/does/not/exist.sam", "chr1", 25, 2, nil); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := FromSAMParallel(path, "chr1", 0, 2, nil); err == nil {
		t.Error("zero bin size accepted")
	}
}

func TestWIGRoundTrip(t *testing.T) {
	h, _ := New("chr1", 500, 10)
	h.AddInterval(1, 100, 1)   // bins 0-9
	h.AddInterval(301, 350, 3) // bins 30-34, after a zero gap
	var buf bytes.Buffer
	if err := h.WriteWIG(&buf); err != nil {
		t.Fatalf("WriteWIG: %v", err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "track type=wiggle_0\n") {
		t.Errorf("missing track line:\n%s", out)
	}
	// The zero gap forces two fixedStep declarations.
	if got := strings.Count(out, "fixedStep"); got != 2 {
		t.Errorf("fixedStep declarations = %d, want 2:\n%s", got, out)
	}
	got, err := ReadWIG(&buf, "chr1", 500, 10)
	if err != nil {
		t.Fatalf("ReadWIG: %v", err)
	}
	for i := range h.Bins {
		if got.Bins[i] != h.Bins[i] {
			t.Errorf("bin %d = %g, want %g", i, got.Bins[i], h.Bins[i])
		}
	}
}

func TestReadWIGSkipsOtherChromosomes(t *testing.T) {
	in := "track type=wiggle_0\n" +
		"fixedStep chrom=chr2 start=1 step=10 span=10\n5\n" +
		"fixedStep chrom=chr1 start=11 step=10 span=10\n2\n"
	h, err := ReadWIG(strings.NewReader(in), "chr1", 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins[0] != 0 || h.Bins[1] != 20 {
		t.Errorf("bins = %v", h.Bins[:3])
	}
}

func TestReadWIGErrors(t *testing.T) {
	cases := []string{
		"5\n",                            // data before declaration
		"variableStep chrom=chr1\n1 5\n", // unsupported form
		"fixedStep chrom=chr1 start=1 step=5\n1\n",    // step mismatch (bin 10)
		"fixedStep start=1 step=10\n1\n",              // missing chrom
		"fixedStep chrom=chr1 start=x step=10\n",      // bad start
		"fixedStep chrom=chr1 start=1 step=10\nxyz\n", // bad value
	}
	for _, in := range cases {
		if _, err := ReadWIG(strings.NewReader(in), "chr1", 100, 10); err == nil {
			t.Errorf("ReadWIG(%q) accepted", in)
		}
	}
}

func TestWriteWIGEmptyHistogram(t *testing.T) {
	h, _ := New("chr1", 100, 10)
	var buf bytes.Buffer
	if err := h.WriteWIG(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "fixedStep") {
		t.Errorf("empty histogram emitted data:\n%s", buf.String())
	}
}
