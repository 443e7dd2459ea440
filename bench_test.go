package parseq

// One benchmark per paper table and figure, plus ablation benches for the
// design choices DESIGN.md calls out. These run the real implementations
// at laptop scale; `cmd/ngsbench` layers the cluster model on top to
// reproduce the paper's multi-core curves. Run with:
//
//	go test -bench=. -benchmem .
import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"parseq/internal/bgzf"
	"parseq/internal/conv"
	"parseq/internal/fdr"
	"parseq/internal/mpi"
	"parseq/internal/nlmeans"
	"parseq/internal/partition"
	"parseq/internal/picard"
	"parseq/internal/simdata"
)

// benchFixture holds the lazily generated shared inputs.
type benchFixture struct {
	dir      string
	samPath  string
	bamPath  string
	bamxPath string
	baixPath string
	shards   *conv.PreprocessResult
	hist     []float64
	sims     [][]float64
}

var (
	fixtureOnce sync.Once
	fixture     benchFixture
	fixtureErr  error
)

const (
	benchReads = 20000
	benchBins  = 20000
	benchSims  = 40
)

func getFixture(b *testing.B) *benchFixture {
	b.Helper()
	fixtureOnce.Do(func() {
		dir, err := os.MkdirTemp("", "parseq-bench-")
		if err != nil {
			fixtureErr = err
			return
		}
		d := simdata.Generate(simdata.DefaultConfig(benchReads))
		fixture.dir = dir
		fixture.samPath = filepath.Join(dir, "bench.sam")
		fixture.bamPath = filepath.Join(dir, "bench.bam")
		fixture.bamxPath = filepath.Join(dir, "bench.bamx")
		fixture.baixPath = filepath.Join(dir, "bench.baix")
		sf, err := os.Create(fixture.samPath)
		if err != nil {
			fixtureErr = err
			return
		}
		if fixtureErr = d.WriteSAM(sf); fixtureErr != nil {
			return
		}
		if fixtureErr = sf.Close(); fixtureErr != nil {
			return
		}
		bf, err := os.Create(fixture.bamPath)
		if err != nil {
			fixtureErr = err
			return
		}
		if fixtureErr = d.WriteBAM(bf); fixtureErr != nil {
			return
		}
		if fixtureErr = bf.Close(); fixtureErr != nil {
			return
		}
		if _, fixtureErr = conv.PreprocessBAMFile(fixture.bamPath, fixture.bamxPath, fixture.baixPath, 0); fixtureErr != nil {
			return
		}
		fixture.shards, fixtureErr = conv.PreprocessSAMParallel(fixture.samPath, Options{OutDir: dir, OutPrefix: "shard", Cores: 4})
		if fixtureErr != nil {
			return
		}
		fixture.hist = simdata.Histogram(benchBins, 1)
		fixture.sims = simdata.Simulations(benchSims, benchBins, 2)
	})
	if fixtureErr != nil {
		b.Fatalf("bench fixture: %v", fixtureErr)
	}
	return &fixture
}

func benchOpts(b *testing.B, format string, cores int) Options {
	return Options{Format: format, Cores: cores, OutDir: b.TempDir(), OutPrefix: "b"}
}

// --- Table I: sequential comparison against the Picard-style baseline ---

func BenchmarkTable1SamToFastqOurs(b *testing.B) {
	fx := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conv.ConvertSAM(fx.samPath, benchOpts(b, "fastq", 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1SamToFastqOursPreprocessed(b *testing.B) {
	fx := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conv.ConvertPreprocessed(fx.shards.BAMXFiles, fx.shards.BAIXFiles,
			benchOpts(b, "fastq", 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1SamToFastqBaseline(b *testing.B) {
	fx := getFixture(b)
	out := filepath.Join(b.TempDir(), "out.fastq")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := picard.SamToFastq(fx.samPath, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1BamToSamOurs(b *testing.B) {
	fx := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conv.ConvertBAMSequential(fx.bamPath, benchOpts(b, "sam", 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1BamToSamOursPreprocessed(b *testing.B) {
	fx := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conv.ConvertBAMX(fx.bamxPath, fx.baixPath, benchOpts(b, "sam", 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1BamToSamBaseline(b *testing.B) {
	fx := getFixture(b)
	out := filepath.Join(b.TempDir(), "out.sam")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := picard.BamToSam(fx.bamPath, out); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6: SAM format converter across target formats ---

func BenchmarkFig6ConvertSAM(b *testing.B) {
	fx := getFixture(b)
	cores := runtime.GOMAXPROCS(0)
	for _, format := range []string{"bed", "bedgraph", "fasta"} {
		b.Run(format, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := conv.ConvertSAM(fx.samPath, benchOpts(b, format, cores)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 7: BAM format converter (BAMX parallel phase) ---

func BenchmarkFig7ConvertBAMX(b *testing.B) {
	fx := getFixture(b)
	cores := runtime.GOMAXPROCS(0)
	for _, format := range []string{"bed", "bedgraph", "fasta"} {
		b.Run(format, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := conv.ConvertBAMX(fx.bamxPath, fx.baixPath,
					benchOpts(b, format, cores)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 8: partial conversion across region fractions ---

func BenchmarkFig8PartialConversion(b *testing.B) {
	fx := getFixture(b)
	const chr1Len = 197195
	for _, pct := range []int{20, 40, 60, 80, 100} {
		b.Run(fmt.Sprintf("pct=%d", pct), func(b *testing.B) {
			opts := benchOpts(b, "sam", 2)
			opts.Region = &Region{RName: "chr1", Beg: 1, End: int32(chr1Len * pct / 100)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := conv.ConvertBAMX(fx.bamxPath, fx.baixPath, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 9: original vs preprocessing-optimized SAM converter ---

func BenchmarkFig9Original(b *testing.B) {
	fx := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conv.ConvertSAM(fx.samPath, benchOpts(b, "bed", 2)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9PreprocessingOptimized(b *testing.B) {
	fx := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conv.ConvertPreprocessed(fx.shards.BAMXFiles, fx.shards.BAIXFiles,
			benchOpts(b, "bed", 2)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 10: SAM→BAMX preprocessing ---

func BenchmarkFig10PreprocessSAM(b *testing.B) {
	fx := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conv.PreprocessSAMParallel(fx.samPath,
			Options{OutDir: b.TempDir(), OutPrefix: "p", Cores: runtime.GOMAXPROCS(0)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 11: NL-means across search radii ---

func BenchmarkFig11NLMeans(b *testing.B) {
	fx := getFixture(b)
	for _, r := range []int{20, 80, 320} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			p := nlmeans.Params{R: r, L: 15, Sigma: 10}
			// A slice of the fixture histogram keeps the r=320 case fast.
			v := fx.hist[:benchBins/4]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nlmeans.DenoiseParallel(v, p, runtime.GOMAXPROCS(0)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 12: FDR computation ---

func BenchmarkFig12FDRFused(b *testing.B) {
	fx := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fdr.Fused(fx.hist, fx.sims, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12FDRParallel(b *testing.B) {
	fx := getFixture(b)
	ranks := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			_, err := fdr.ParallelFused(c, fx.hist, fx.sims, 10)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

// Algorithm 1's two equivalent boundary-adjustment implementations.
func BenchmarkAblationPartitionDirection(b *testing.B) {
	fx := getFixture(b)
	f, err := os.Open(fx.samPath)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("forward", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := partition.SAMForward(f, 0, fi.Size(), 64); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("backward", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := partition.SAMBackward(f, 0, fi.Size(), 64); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The fused single-sweep FDR vs the unfused two-sweep formulation.
func BenchmarkAblationFDRFusion(b *testing.B) {
	fx := getFixture(b)
	b.Run("fused", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fdr.Fused(fx.hist, fx.sims, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("two-pass", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fdr.TwoPass(fx.hist, fx.sims, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Partial conversion via the BAIX index vs scanning the whole file and
// filtering — the access pattern the BAMX preprocessing exists to enable.
func BenchmarkAblationPartialAccess(b *testing.B) {
	fx := getFixture(b)
	region := &Region{RName: "chr1", Beg: 1, End: 40000}
	b.Run("baix-index", func(b *testing.B) {
		opts := benchOpts(b, "bed", 1)
		opts.Region = region
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := conv.ConvertBAMX(fx.bamxPath, fx.baixPath, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-scan-filter", func(b *testing.B) {
		// Scan everything, emit nothing outside the region: the cost a
		// converter without an index pays for the same query.
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := conv.ConvertBAMX(fx.bamxPath, "", benchOpts(b, "bed", 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// NL-means distributed with replicated halos vs shared-memory workers
// reading the full histogram.
func BenchmarkAblationNLMeansHalo(b *testing.B) {
	fx := getFixture(b)
	p := nlmeans.Params{R: 20, L: 15, Sigma: 10}
	v := fx.hist[:benchBins/2]
	ranks := 4
	b.Run("replicated-halo", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := mpi.Run(ranks, func(c *mpi.Comm) error {
				_, err := nlmeans.DenoiseDistributed(c, v, p)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared-memory", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := nlmeans.DenoiseParallel(v, p, ranks); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Plain vs block-compressed BAMX conversion — the paper's Section VII
// compression extension trades decompression CPU for I/O volume.
func BenchmarkAblationBAMXCompression(b *testing.B) {
	fx := getFixture(b)
	bamzPath := filepath.Join(fx.dir, "bench.bamz")
	if _, err := os.Stat(bamzPath); err != nil {
		if _, err := conv.CompressBAMXFile(fx.bamxPath, bamzPath, 512); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("plain", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := conv.ConvertBAMX(fx.bamxPath, fx.baixPath, benchOpts(b, "bed", 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compressed", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := conv.ConvertBAMZ(bamzPath, fx.baixPath, benchOpts(b, "bed", 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BGZF block-size sensitivity: compression ratio/speed vs random-access
// granularity.
func BenchmarkAblationBGZFBlockSize(b *testing.B) {
	fx := getFixture(b)
	data, err := os.ReadFile(fx.samPath)
	if err != nil {
		b.Fatal(err)
	}
	for _, payload := range []int{4 << 10, 16 << 10, bgzf.MaxPayload} {
		b.Run(fmt.Sprintf("payload=%d", payload), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := bgzf.NewWriterLevel(nopWriter{}, -1, payload)
				if _, err := w.Write(data); err != nil {
					b.Fatal(err)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }
