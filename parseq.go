// Package parseq is a scalable sequence-data analysis framework: a Go
// reproduction of "Removing Sequential Bottlenecks in Analysis of
// Next-Generation Sequencing Data" (Wang, Ozer, Agrawal, Huang — IPPS
// 2014).
//
// The framework has two components. The sequence data format converter
// turns SAM/BAM datasets into SAM, BED, BEDGRAPH, FASTA, FASTQ, JSON or
// YAML with shared-memory parallelism, through three converter instances:
//
//   - ConvertSAM — the SAM format converter (Algorithm 1 byte
//     partitioning with line-breaker adjustment);
//   - PreprocessBAM + ConvertBAMX — the BAM format converter (sequential
//     preprocessing into the fixed-stride BAMX format plus a BAIX index,
//     then embarrassingly parallel conversion, including partial
//     conversion of a chromosome region);
//   - ConvertSAMPreprocessed — the preprocessing-optimized SAM format
//     converter (parallel SAM→BAMX preprocessing, then BAMX conversion).
//
// The statistical analysis component parallelises 1-D non-local means
// denoising of coverage histograms (Denoise, DenoiseParallel) and false
// discovery rate computation (FDR, FDRParallel — Algorithm 2's fused
// single-synchronisation reduction).
//
// Everything underneath is built from scratch on the standard library:
// SAM/BAM codecs, BGZF block compression, the UCSC-binning BAI index,
// the BAMX/BAIX formats, an in-process MPI-style runtime, a synthetic
// NGS dataset generator, and the experiment harness that regenerates the
// paper's Table I and Figures 6-12.
package parseq

import (
	"io"

	"parseq/internal/conv"
	"parseq/internal/experiments"
	"parseq/internal/fdr"
	"parseq/internal/flagstat"
	"parseq/internal/formats"
	"parseq/internal/formats/pamx"
	"parseq/internal/hist"
	"parseq/internal/mpi"
	"parseq/internal/nlmeans"
	"parseq/internal/peaks"
	"parseq/internal/sam"
	"parseq/internal/simdata"
	"parseq/internal/sorter"
)

// Options configures a conversion. See the field documentation in the
// converter runtime.
type Options = conv.Options

// Region selects a chromosome region (1-based, inclusive) for partial
// conversion.
type Region = conv.Region

// Result reports a completed conversion: per-rank target files plus
// counters and phase timings.
type Result = conv.Result

// Stats holds a conversion's counters and timings.
type Stats = conv.Stats

// PreprocessResult reports a preprocessing phase: the generated BAMX and
// BAIX files.
type PreprocessResult = conv.PreprocessResult

// ParseRegion parses "chr1", "chr1:100-200" or "chr1:100-".
func ParseRegion(s string) (Region, error) { return conv.ParseRegion(s) }

// Formats lists the supported target formats.
func Formats() []string { return formats.Names() }

// FormatEncoder is the "user program" interface: one conversion function
// from an alignment object to a target object, with partitioning,
// concurrency and file management handled by the runtime.
type FormatEncoder = formats.Encoder

// RegisterFormat adds a user-supplied target format to every converter —
// the paper's extensibility mechanism. See examples/customformat.
func RegisterFormat(name string, factory func() FormatEncoder) error {
	return formats.Register(name, factory)
}

// ConvertSAM runs the SAM format converter: Algorithm 1 partitions the
// file into opts.Cores line-aligned byte ranges, and each rank converts
// its partition into a separate target file with no communication.
func ConvertSAM(samPath string, opts Options) (*Result, error) {
	return conv.ConvertSAM(samPath, opts)
}

// ConvertBAMSequential converts a BAM file record-at-a-time on one core
// (the "without preprocessing" configuration of Table I).
func ConvertBAMSequential(bamPath string, opts Options) (*Result, error) {
	return conv.ConvertBAMSequential(bamPath, opts)
}

// PreprocessBAM runs the BAM converter's sequential preprocessing phase:
// BAM in, fixed-stride BAMX plus BAIX index out. The cost is paid once
// and amortised over any number of parallel conversions.
func PreprocessBAM(bamPath, bamxPath, baixPath string) (*PreprocessResult, error) {
	return conv.PreprocessBAMFile(bamPath, bamxPath, baixPath, 0)
}

// ConvertBAM is the complete BAM format converter: sequential
// preprocessing into a temporary BAMX/BAIX pair under opts.OutDir, then
// parallel conversion. PreprocessTime reports the sequential phase
// separately.
func ConvertBAM(bamPath string, opts Options) (*Result, error) {
	return conv.ConvertBAM(bamPath, opts)
}

// ConvertBAMX runs the parallel conversion phase over a BAMX file.
// With opts.Region set, the BAIX index maps the region to a contiguous
// record range first (partial conversion); baixPath may be empty to
// rebuild the index by scanning.
func ConvertBAMX(bamxPath, baixPath string, opts Options) (*Result, error) {
	return conv.ConvertBAMX(bamxPath, baixPath, opts)
}

// PreprocessSAM runs the preprocessing-optimized SAM converter's parallel
// preprocessing: the SAM input becomes `cores` BAMX files with BAIX
// indices, one per rank.
func PreprocessSAM(samPath, outDir, prefix string, cores int) (*PreprocessResult, error) {
	return conv.PreprocessSAMParallel(samPath, Options{OutDir: outDir, OutPrefix: prefix, Cores: cores})
}

// ConvertPreprocessed converts previously generated BAMX shards.
func ConvertPreprocessed(bamxFiles, baixFiles []string, opts Options) (*Result, error) {
	return conv.ConvertPreprocessed(bamxFiles, baixFiles, opts)
}

// ConvertSAMPreprocessed is the complete preprocessing-optimized SAM
// format converter: parallel SAM→BAMX preprocessing with preCores ranks,
// then parallel conversion with opts.Cores ranks.
func ConvertSAMPreprocessed(samPath string, preCores int, opts Options) (*Result, error) {
	return conv.ConvertSAMPreprocessed(samPath, preCores, opts)
}

// ConvertSAMToBAM converts a SAM file into per-rank BAM shards in
// parallel (the converter's binary-target path).
func ConvertSAMToBAM(samPath string, opts Options) (*Result, error) {
	return conv.ConvertSAMToBAM(samPath, opts)
}

// MergeBAMShards fuses per-rank BAM shards into one BAM file.
func MergeBAMShards(shardPaths []string, outPath string) (int64, error) {
	return conv.MergeBAMShards(shardPaths, outPath, 0)
}

// CompressBAMX rewrites a plain BAMX file as the block-compressed BAMZ
// variant (the paper's Section VII compression extension), preserving
// record indices so existing BAIX indices keep working.
func CompressBAMX(bamxPath, bamzPath string, recsPerBlock int) (int64, error) {
	return conv.CompressBAMXFile(bamxPath, bamzPath, recsPerBlock)
}

// ConvertBAMZ is ConvertBAMX for compressed BAMX files: each rank
// decompresses only the blocks its record range touches.
func ConvertBAMZ(bamzPath, baixPath string, opts Options) (*Result, error) {
	return conv.ConvertBAMZ(bamzPath, baixPath, opts)
}

// PAMXOptions tunes the columnar PAMX writer: codec worker count (0
// attaches to the shared BGZF pool) and column-group cut thresholds.
type PAMXOptions = pamx.Options

// PAMXFields selects the columns a PAMX reader inflates; see the
// pamx.Field* constants re-exported by internal analyses.
type PAMXFields = pamx.Fields

// ConvertBAMToPAMX rewrites a BAM file as columnar PAMX: per-field
// streams compressed independently into coordinate-sharded column
// groups, so later analyses inflate only the fields they project.
func ConvertBAMToPAMX(bamPath, pamxPath string, opts PAMXOptions) (int64, error) {
	return pamx.FromBAM(bamPath, pamxPath, opts)
}

// ConvertBAMXToPAMX rewrites a fixed-stride BAMX file as columnar PAMX.
func ConvertBAMXToPAMX(bamxPath, pamxPath string, opts PAMXOptions) (int64, error) {
	return pamx.FromBAMX(bamxPath, pamxPath, opts)
}

// ConvertPAMXToBAM converts a PAMX file back into BAM with the full
// projection; the output is byte-identical to a sequential BAM rewrite
// of the original input at any codec worker count.
func ConvertPAMXToBAM(pamxPath, bamPath string, opts PAMXOptions) (int64, error) {
	return pamx.ToBAM(pamxPath, bamPath, opts)
}

// NLMeansParams are the non-local means parameters: search radius R,
// half patch size L and filtering parameter Sigma.
type NLMeansParams = nlmeans.Params

// Denoise runs sequential 1-D NL-means over a histogram.
func Denoise(histogram []float64, p NLMeansParams) ([]float64, error) {
	return nlmeans.Denoise(histogram, p)
}

// DenoiseParallel runs NL-means with `cores` parallel workers on the
// sliding-window kernel; the result is bit-identical at every core count,
// within 1e-9 of Denoise.
func DenoiseParallel(histogram []float64, p NLMeansParams, cores int) ([]float64, error) {
	return nlmeans.DenoiseParallel(histogram, p, cores)
}

// DenoiseDistributed runs the paper's halo-replication strategy on the
// in-process message-passing runtime with `ranks` ranks.
func DenoiseDistributed(histogram []float64, p NLMeansParams, ranks int) ([]float64, error) {
	var out []float64
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		v, err := nlmeans.DenoiseDistributed(c, histogram, p)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out = v
		}
		return nil
	})
	return out, err
}

// FDR computes the false discovery rate FDR(pt) for one histogram and B
// simulation datasets with the fused single-pass reduction.
func FDR(histogram []float64, sims [][]float64, pt float64) (float64, error) {
	return fdr.Fused(histogram, sims, pt)
}

// FDRParallel computes FDR(pt) with Algorithm 2 on `ranks` ranks of the
// message-passing runtime: bin-direction partitioning, concurrent
// numerator/denominator local sums, one global synchronisation.
func FDRParallel(histogram []float64, sims [][]float64, pt float64, ranks int) (float64, error) {
	var out float64
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		v, err := fdr.ParallelFused(c, histogram, sims, pt)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out = v
		}
		return nil
	})
	return out, err
}

// FDRSweep evaluates FDR over several candidate thresholds.
func FDRSweep(histogram []float64, sims [][]float64, thresholds []float64) ([]float64, error) {
	return fdr.Sweep(histogram, sims, thresholds)
}

// DatasetConfig controls synthetic dataset generation.
type DatasetConfig = simdata.Config

// Dataset is a generated synthetic dataset.
type Dataset = simdata.Dataset

// DefaultDatasetConfig mirrors the paper's dataset shape (paired-end
// 90 bp Illumina-style reads over mouse-like chromosomes) at the given
// record count.
func DefaultDatasetConfig(numReads int) DatasetConfig {
	return simdata.DefaultConfig(numReads)
}

// GenerateDataset builds a deterministic synthetic dataset.
func GenerateDataset(cfg DatasetConfig) *Dataset { return simdata.Generate(cfg) }

// GenerateHistogram builds a synthetic binned coverage histogram with
// enriched regions, the statistical module's input.
func GenerateHistogram(bins int, seed int64) []float64 {
	return simdata.Histogram(bins, seed)
}

// GenerateSimulations builds B random-background simulation datasets for
// the FDR computation.
func GenerateSimulations(b, bins int, seed int64) [][]float64 {
	return simdata.Simulations(b, bins, seed)
}

// Histogram is a binned coverage track over one reference.
type Histogram = hist.Histogram

// Coverage accumulates alignment records into a coverage histogram for
// one reference sequence.
func Coverage(recs []sam.Record, header *sam.Header, rname string, binSize int) (*Histogram, error) {
	return hist.Coverage(recs, header, rname, binSize)
}

// CoverageParallel builds a coverage histogram directly from a SAM file
// with `cores` ranks (Algorithm 1 partitioning plus a gather-reduce) —
// the paper's parallel histogram-construction step.
func CoverageParallel(samPath, rname string, binSize, cores int) (*Histogram, error) {
	return hist.FromSAMParallel(samPath, rname, binSize, cores, nil)
}

// FlagstatStats are samtools-flagstat-style dataset counters.
type FlagstatStats = flagstat.Stats

// Flagstat computes summary statistics over a SAM file with `cores`
// parallel ranks.
func Flagstat(samPath string, cores int) (FlagstatStats, error) {
	return flagstat.SAMFile(samPath, cores, nil)
}

// SortOptions tunes the coordinate sorter.
type SortOptions = sorter.Options

// SortSAMToBAM coordinate-sorts a SAM file into BAM via a parallel
// external merge sort, preparing it for indexing and partial conversion.
func SortSAMToBAM(samPath, outPath string, opts SortOptions) (int64, error) {
	return sorter.SortSAMToBAM(samPath, outPath, opts)
}

// SortBAM coordinate-sorts a BAM file into a new BAM file.
func SortBAM(bamPath, outPath string, opts SortOptions) (int64, error) {
	return sorter.SortBAM(bamPath, outPath, opts)
}

// Peak is one enriched region in bin coordinates.
type Peak = peaks.Peak

// PeakOptions tunes peak calling.
type PeakOptions = peaks.Options

// CallPeaks selects an FDR-minimising threshold from the candidates and
// returns the enriched regions of the histogram, completing the
// denoise → FDR → region-selection pipeline.
func CallPeaks(histogram []float64, sims [][]float64, candidates []float64,
	opts PeakOptions) ([]Peak, float64, float64, error) {
	return peaks.CallWithFDR(histogram, sims, candidates, opts)
}

// ExperimentScale sets the workload sizes the paper experiments run at.
type ExperimentScale = experiments.Scale

// DefaultExperimentScale sizes the experiments for a few-minute full run.
func DefaultExperimentScale() ExperimentScale { return experiments.DefaultScale() }

// Experiments lists the reproducible paper experiments (table1, fig6..fig12).
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one paper table or figure and prints it to w.
func RunExperiment(w io.Writer, id string, sc ExperimentScale) error {
	rep, err := experiments.Run(id, sc)
	if err != nil {
		return err
	}
	return rep.Print(w)
}

// RunAllExperiments regenerates every paper table and figure.
func RunAllExperiments(w io.Writer, sc ExperimentScale) error {
	return experiments.PrintAll(w, sc)
}
