package experiments

import (
	"io"
	"os"
	"path/filepath"
	"time"

	"parseq/internal/conv"
	"parseq/internal/fdr"
	"parseq/internal/simdata"
)

// reps is how many times a measured journey or kernel runs; the minimum
// is reported, suppressing scheduler and page-cache noise.
const reps = 3

// bestOf returns the smallest of n durations fn reports.
func bestOf(n int, fn func() (time.Duration, error)) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < n; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// wall times a kernel that keeps no phase statistics of its own
// (NL-means, FDR, the partitioner) — the package's only clock. The
// converters and the Picard baseline report their own phase times.
func wall(fn func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}
}

// fixture is everything one driver run shares between its figures: the
// scratch directory, the two generated datasets with their preprocessed
// forms, the statistical inputs and every measured journey. Each part
// is built on first use and at most once.
type fixture struct {
	sc       Scale
	full     dataset // every chromosome: Figures 6-10 and the ablations
	chr1     dataset // the chr1 extract of Table I, as in the paper
	journeys map[string]journey

	hist           []float64
	fused, twoPass time.Duration // sequential FDR kernels

	generated, preBAM int // datasets generated, PreprocessBAMFile calls
}

func newFixture(sc Scale) (*fixture, error) {
	if err := sc.normalize(); err != nil {
		return nil, err
	}
	fx := &fixture{sc: sc, journeys: map[string]journey{}}
	fx.full = dataset{fx: fx, name: "full"}
	fx.chr1 = dataset{fx: fx, name: "chr1", chroms: 1}
	return fx, nil
}

func (fx *fixture) path(name string) string { return filepath.Join(fx.sc.TmpDir, name) }

// dataset is one generated alignment set as SAM and BAM files, plus its
// preprocessed forms.
type dataset struct {
	fx         *fixture
	name       string
	chroms     int // leading chromosomes kept; 0 keeps all
	sam, bam   string
	bamx, baix string                 // the BAM preprocessor's pair
	shards     *conv.PreprocessResult // the SAM preprocessor's one-rank output
}

// files generates the dataset and writes it as SAM and BAM.
func (d *dataset) files() error {
	if d.sam != "" {
		return nil
	}
	cfg := simdata.DefaultConfig(d.fx.sc.Reads)
	if d.chroms > 0 {
		cfg.Chromosomes = cfg.Chromosomes[:d.chroms]
	}
	data := simdata.Generate(cfg)
	d.fx.generated++
	samPath, bamPath := d.fx.path(d.name+".sam"), d.fx.path(d.name+".bam")
	if err := writeFile(samPath, data.WriteSAM); err != nil {
		return err
	}
	if err := writeFile(bamPath, data.WriteBAM); err != nil {
		return err
	}
	d.sam, d.bam = samPath, bamPath
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// pair runs the BAM format converter's sequential preprocessing.
func (d *dataset) pair() error {
	if d.bamx != "" {
		return nil
	}
	if err := d.files(); err != nil {
		return err
	}
	bamxPath, baixPath := d.fx.path(d.name+".bamx"), d.fx.path(d.name+".baix")
	if _, err := conv.PreprocessBAMFile(d.bam, bamxPath, baixPath, 0); err != nil {
		return err
	}
	d.fx.preBAM++
	d.bamx, d.baix = bamxPath, baixPath
	return nil
}

// preprocessSAM runs the preprocessing-optimized SAM converter's
// preprocessing on one rank: one BAMX/BAIX pair, byte-identical to
// pair's (TestPreprocessorsAgree).
func (d *dataset) preprocessSAM() error {
	if d.shards != nil {
		return nil
	}
	if err := d.files(); err != nil {
		return err
	}
	pre, err := conv.PreprocessSAMParallel(d.sam, conv.Options{OutDir: d.fx.sc.TmpDir, OutPrefix: d.name + "_pre"})
	d.shards = pre
	return err
}

// journey is one measured one-rank conversion: the converter's own
// tallies, and the seconds of its partition and convert phases.
type journey struct {
	conv.Stats
	secs float64
}

// journey runs a conversion reps times and keeps the fastest, once per
// key. run receives the one-rank options that name its target files.
func (fx *fixture) journey(key string, run func(conv.Options) (*conv.Result, error)) (journey, error) {
	if j, ok := fx.journeys[key]; ok {
		return j, nil
	}
	var j journey
	d, err := bestOf(reps, func() (time.Duration, error) {
		res, err := run(conv.Options{Cores: 1, OutDir: fx.sc.TmpDir, OutPrefix: key})
		if err != nil {
			return 0, err
		}
		j.Stats = res.Stats
		return res.Stats.PartitionTime + res.Stats.ConvertTime, nil
	})
	if err != nil {
		return j, err
	}
	j.secs = d.Seconds()
	fx.journeys[key] = j
	return j, nil
}

// samTo converts the full SAM dataset with the SAM format converter.
func (fx *fixture) samTo(format string) (journey, error) {
	if err := fx.full.files(); err != nil {
		return journey{}, err
	}
	return fx.journey("sam_"+format, func(o conv.Options) (*conv.Result, error) {
		o.Format = format
		return conv.ConvertSAM(fx.full.sam, o)
	})
}

// bamxTo converts the full dataset's BAMX file, or one region of it.
func (fx *fixture) bamxTo(format string, region *conv.Region) (journey, error) {
	if err := fx.full.pair(); err != nil {
		return journey{}, err
	}
	key := "bamx_" + format
	if region != nil {
		key += "_" + region.String()
	}
	return fx.journey(key, func(o conv.Options) (*conv.Result, error) {
		o.Format, o.Region = format, region
		return conv.ConvertBAMX(fx.full.bamx, fx.full.baix, o)
	})
}

// shardsTo converts the full dataset's SAM-preprocessed BAMX shards.
func (fx *fixture) shardsTo(format string) (journey, error) {
	if err := fx.full.preprocessSAM(); err != nil {
		return journey{}, err
	}
	return fx.journey("shards_"+format, func(o conv.Options) (*conv.Result, error) {
		o.Format = format
		return conv.ConvertPreprocessed(fx.full.shards.BAMXFiles, fx.full.shards.BAIXFiles, o)
	})
}

// histogram is the binned coverage track the statistical kernels run on.
func (fx *fixture) histogram() []float64 {
	if fx.hist == nil {
		fx.hist = simdata.Histogram(fx.sc.Bins, 101)
	}
	return fx.hist
}

// fdrKernels times the two sequential FDR kernels, the fused single
// sweep (Algorithm 2) and the unfused double sweep.
func (fx *fixture) fdrKernels() (fused, twoPass time.Duration, err error) {
	if fx.twoPass == 0 {
		hist, sims := fx.histogram(), simdata.Simulations(fx.sc.Sims, fx.sc.Bins, 102)
		timed := func(kernel func([]float64, [][]float64, float64) (float64, error)) (time.Duration, error) {
			return bestOf(reps, wall(func() error {
				_, err := kernel(hist, sims, float64(fx.sc.Sims)/4)
				return err
			}))
		}
		if fx.fused, err = timed(fdr.Fused); err == nil {
			fx.twoPass, err = timed(fdr.TwoPass)
		}
	}
	return fx.fused, fx.twoPass, err
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
