package engine

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"parseq/internal/conv"
	"parseq/internal/fdr"
	"parseq/internal/flagstat"
	"parseq/internal/hist"
	"parseq/internal/mpi"
	"parseq/internal/nlmeans"
	"parseq/internal/peaks"
	"parseq/internal/shard"
	"parseq/internal/simdata"
	"parseq/internal/sorter"
)

// Env is what the caller resolves for one job and a client must not
// set: where the input really is, where the outputs go, and the rank
// world the job runs on.
type Env struct {
	// Input is the resolved input file; "" means Spec.InputPath.
	Input string
	// OutDir receives the outputs under engine-chosen names: convert's
	// <OutPrefix>_p<rank><ext> per rank (<OutPrefix>.bamx and .baix, or
	// <OutPrefix>.pamx, for a container format), sort's out.bam,
	// flagstat.txt, hist.tsv, peaks.tsv, denoised.tsv, fdr.tsv. "" is
	// the working directory. OutPrefix defaults to "out".
	OutDir    string
	OutPrefix string
	// OutPath overrides the name of a single-file op's output (every op
	// but convert). An analysis with neither OutPath nor OutDir writes
	// no file: its Result is the whole answer.
	OutPath string
	// BAIX is the index beside a container input, the .bai of a .bam or
	// the .baix of a .bamx/.bamz; "" means the input path plus .bai, or
	// with a .baix extension. A .bam needs none; a missing BAIX is
	// rebuilt by scanning (.bamx) or refused (.bamz), and only a region
	// reads one.
	BAIX string
	// Launch runs the job's rank functions: nil for Spec.Ranks goroutine
	// ranks in this process, or a distributed world's launcher — then
	// every process of the world calls Run with the same Spec, Rank is
	// this process's rank, and Spec.Ranks is the world size.
	Launch mpi.Launcher
	Rank   int

	// Options the CLIs expose that have no JSON name.

	// ChunkRecords is sort's in-memory run size (0: the sorter's default).
	ChunkRecords int
	// SimData replaces the synthetic background of peaks and fdr
	// (Spec.Sims datasets from Spec.Seed) with measured simulation
	// datasets.
	SimData [][]float64
	// MaxGap and MinWidth are peaks' run-merging gap and minimum width,
	// in bins.
	MaxGap, MinWidth int
}

// File describes one output file by its base name.
type File struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// Result reports a completed job.
type Result struct {
	// Files are the outputs in rank order. Empty on the non-root ranks
	// of a distributed analysis, and on every rank of a distributed
	// convert — peers may still be flushing when Run returns, so the
	// caller lists them with ConvertOutputs once the world has settled.
	Files    []File
	BytesOut int64 // total size of Files
	// Records counts what the op produced: records converted, sorted or
	// tallied, histogram bins, peaks called.
	Records int64
	// Summary is what the op's CLI prints: one line describing the run,
	// or — flagstat — the report itself.
	Summary string
}

// Run executes one job: spec routed to its engine, input and outputs
// placed by env. Under a distributed launcher every rank runs the same
// call sequence; analysis outputs are written by rank 0 only.
func Run(spec Spec, env Env) (res Result, err error) {
	if err := spec.Validate(); err != nil {
		return res, err
	}
	env.Input = cmp.Or(env.Input, spec.InputPath)
	env.OutPrefix = cmp.Or(env.OutPrefix, "out")
	ranks := max(spec.Ranks, 1)
	var paths []string // what the op wrote, for the stat below
	switch spec.Op {
	case OpConvert:
		paths, err = runConvert(&spec, &env, ranks, &res)
	case OpSort:
		paths, err = runSort(&env, ranks, &res)
	case OpNLMeans, OpFDR:
		paths, err = runStats(&spec, &env, ranks, &res)
	default:
		paths, err = runAnalysis(&spec, &env, ranks, &res)
	}
	if err != nil {
		return Result{}, err
	}
	res.Files, res.BytesOut, err = statFiles(paths)
	return res, err
}

func runConvert(spec *Spec, env *Env, ranks int, out *Result) ([]string, error) {
	kind, err := spec.ConverterKind()
	if err != nil {
		return nil, err
	}
	if kind == "psam" && env.Launch != nil {
		// Each process would preprocess and then convert only its own
		// rank's share.
		return nil, fmt.Errorf("engine: converter psam does not run on a distributed world; use converter sam, or a .bamx input made with format bamx")
	}
	if kind != "sam" && kind != "psam" && shard.Ext(env.Input) != "."+kind {
		// The provider is picked by extension: an explicit kind over
		// another container would read it as whatever its name says.
		return nil, fmt.Errorf("engine: converter %s needs a .%s input, not %q", kind, kind, env.Input)
	}
	if spec.WritesContainer() {
		if kind == "sam" || kind == "psam" {
			// psam's preprocessing phase alone: one BAMX pair per rank.
			return preprocessSAM(env, ranks, out)
		}
		return rewrite(spec, env, out)
	}
	opts := convOptions(spec, env, ranks)
	if spec.Region != "" {
		r, err := conv.ParseRegion(spec.Region)
		if err != nil {
			return nil, err
		}
		opts.Region = &r
	}
	var res *conv.Result
	switch kind {
	case "sam":
		res, err = conv.ConvertSAM(env.Input, opts)
	case "psam":
		res, err = conv.ConvertSAMPreprocessed(env.Input, ranks, opts)
	default:
		// A container, the one the extension names, read through its
		// shard provider.
		res, err = conv.ConvertIndexed(env.Input, env.BAIX, opts)
	}
	if err != nil {
		return nil, err
	}
	st := res.Stats
	out.Records = st.Records
	out.Summary = fmt.Sprintf("converted %d records (%d emitted, %d bytes) into %d files in %v",
		st.Records, st.Emitted, st.BytesOut, len(res.Files), st.PartitionTime+st.ConvertTime)
	if st.PreprocessTime > 0 {
		out.Summary += fmt.Sprintf("\npreprocessing took %v (amortisable)", st.PreprocessTime)
	}
	if env.Launch != nil {
		return nil, nil // this rank's tally only; files via ConvertOutputs
	}
	return res.Files, nil
}

// convOptions is the converter configuration a convert job names. Every
// worker count is left at 0, the adaptive rule.
func convOptions(spec *Spec, env *Env, ranks int) conv.Options {
	return conv.Options{
		Format: spec.Format, Cores: ranks, OutDir: env.OutDir, OutPrefix: env.OutPrefix,
		Launch: env.Launch,
	}
}

// ConvertOutputs stats the per-rank outputs of a distributed SAM
// conversion, the names conv.OutputPath gives. Call it once every
// rank's files are durable (after the world's settle barrier).
func ConvertOutputs(spec *Spec, env Env) ([]File, int64, error) {
	opts := convOptions(spec, &env, max(spec.Ranks, 1))
	paths := make([]string, opts.Cores)
	for r := range paths {
		var err error
		if paths[r], err = conv.OutputPath(opts, r); err != nil {
			return nil, 0, err
		}
	}
	return statFiles(paths)
}

// rewrite is a container target from a container input: the records in
// file order into one <OutPrefix>.bamx (with its BAIX) or .pamx. The
// codec count 0 is the adaptive rule; shard.Rewrite's own default is 1.
func rewrite(spec *Spec, env *Env, out *Result) ([]string, error) {
	start := time.Now()
	dst := filepath.Join(env.OutDir, env.OutPrefix+"."+spec.Format)
	n, err := shard.Rewrite(env.Input, dst, shard.WithCodecWorkers(0))
	out.Records = n
	out.Summary = fmt.Sprintf("converted %d records into %s in %v", n, dst, time.Since(start))
	return shard.Outputs(dst), err
}

// preprocessSAM is a SAM input's bamx target, the preprocessing phase
// of the psam converter: <OutPrefix>_m<rank>.bamx and .baix per rank.
func preprocessSAM(env *Env, ranks int, out *Result) ([]string, error) {
	res, err := conv.PreprocessSAMParallel(env.Input, conv.Options{
		Cores: ranks, OutDir: env.OutDir, OutPrefix: env.OutPrefix, Launch: env.Launch,
	})
	if err != nil {
		return nil, err
	}
	out.Records = res.Records
	out.Summary = fmt.Sprintf("preprocessed %d records into %s in %v",
		res.Records, strings.Join(res.BAMXFiles, ", "), res.Duration)
	if env.Launch != nil {
		return nil, nil // another process wrote the other ranks' pairs
	}
	var paths []string
	for i := range res.BAMXFiles {
		paths = append(paths, res.BAMXFiles[i], res.BAIXFiles[i])
	}
	return paths, nil
}

func runSort(env *Env, ranks int, out *Result) ([]string, error) {
	run := sorter.SortBAM
	switch {
	case strings.HasSuffix(env.Input, ".sam"):
		run = sorter.SortSAMToBAM
	case !strings.HasSuffix(env.Input, ".bam"):
		return nil, fmt.Errorf("engine: op sort needs a .sam or .bam input, not %q", env.Input)
	}
	// The output's extension picks its container: .bam, .bamx or .pamx.
	dst := env.dest("out.bam")
	n, err := run(env.Input, dst, sorter.Options{ChunkRecords: env.ChunkRecords, Cores: ranks, TmpDir: env.OutDir})
	out.Records = n
	out.Summary = fmt.Sprintf("sorted %d records → %s", n, dst)
	return shard.Outputs(dst), err
}

// runAnalysis is flagstat, hist and peaks: Algorithm 1 byte
// partitioning over SAM text, region-parallel shards over everything
// else, reduced to rank 0, which alone writes the report.
func runAnalysis(spec *Spec, env *Env, ranks int, out *Result) ([]string, error) {
	var (
		st  flagstat.Stats
		h   *hist.Histogram
		err error
	)
	if strings.HasSuffix(env.Input, ".sam") {
		if spec.Op == OpFlagstat {
			st, err = flagstat.SAMFile(env.Input, ranks, env.Launch)
		} else {
			h, err = hist.FromSAMParallel(env.Input, spec.RName, spec.BinSize, ranks, env.Launch)
		}
	} else {
		p := shard.OpenPathProvider(env.Input)
		defer p.Close()
		cfg := shard.Config{Ranks: ranks, TargetShards: spec.Shards, Launch: env.Launch}
		if spec.Op == OpFlagstat {
			st, err = flagstat.Sharded(p, cfg)
		} else {
			h, err = hist.FromProvider(p, spec.RName, spec.BinSize, cfg)
		}
	}
	if err != nil || env.Rank != 0 {
		// A worker rank writing too would race the root on a shared dir.
		return nil, err
	}
	switch spec.Op {
	case OpFlagstat:
		out.Records, out.Summary = st.Total, st.Format()
		return env.report("flagstat.txt", nil, func(w io.Writer) error {
			_, err := io.WriteString(w, out.Summary)
			return err
		})
	case OpHist:
		out.Records = int64(len(h.Bins))
		out.Summary = fmt.Sprintf("histogrammed %s into %d bins of %d bases", spec.RName, len(h.Bins), spec.BinSize)
		return env.report("hist.tsv", &out.Summary, func(w io.Writer) error { return hist.WriteTSV(w, h.Bins) })
	}
	sims := env.simulations(spec, len(h.Bins))
	called, pt, rate, err := peaks.CallWithFDR(h.Bins, sims, spec.Candidates,
		peaks.Options{MaxGap: env.MaxGap, MinWidth: env.MinWidth})
	if err != nil {
		return nil, err
	}
	out.Records = int64(len(called))
	out.Summary = fmt.Sprintf("called %d peaks on %s (p_t=%g, FDR=%.6g, %d simulations)",
		len(called), spec.RName, pt, rate, len(sims))
	return env.report("peaks.tsv", &out.Summary, func(w io.Writer) error {
		for _, p := range called {
			if _, err := fmt.Fprintf(w, "%s\t%d\t%d\t%g\t%d\n", spec.RName,
				p.Start*spec.BinSize, p.End*spec.BinSize, p.MaxValue, p.MinSurvive); err != nil {
				return err
			}
		}
		return nil
	})
}

// runStats is nlmeans and fdr over a histogram TSV: every process reads
// the whole input, each rank of the job's launcher works its SplitRange
// span of it, and rank 0 alone writes.
func runStats(spec *Spec, env *Env, ranks int, out *Result) ([]string, error) {
	v, err := hist.ReadTSV(env.Input)
	if err != nil {
		return nil, err
	}
	out.Records = int64(len(v))
	if spec.Op == OpNLMeans {
		p := nlmeans.Params{R: spec.R, L: spec.L, Sigma: spec.Sigma}
		denoised, err := mpi.RunRoot(env.Launch, ranks, func(c *mpi.Comm) ([]float64, error) {
			return nlmeans.DenoiseRanks(c, v, p)
		})
		if err != nil || env.Rank != 0 {
			return nil, err
		}
		out.Summary = fmt.Sprintf("denoised %d bins (r=%d l=%d sigma=%g, %d ranks)", len(v), p.R, p.L, p.Sigma, ranks)
		return env.report("denoised.tsv", &out.Summary, func(w io.Writer) error { return hist.WriteTSV(w, denoised) })
	}
	sims := env.simulations(spec, len(v))
	rate, err := mpi.RunRoot(env.Launch, ranks, func(c *mpi.Comm) (float64, error) {
		return fdr.ParallelFused(c, v, sims, spec.PT)
	})
	if err != nil || env.Rank != 0 {
		return nil, err
	}
	out.Summary = fmt.Sprintf("FDR(p_t=%g) = %.6g  (%d bins, %d simulations, %d ranks)", spec.PT, rate, len(v), len(sims), ranks)
	return env.report("fdr.tsv", &out.Summary, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%g\t%g\n", spec.PT, rate)
		return err
	})
}

// simulations is the background peaks and fdr compare a histogram of
// bins bins against: Env.SimData, or Spec.Sims synthetic datasets.
func (e *Env) simulations(spec *Spec, bins int) [][]float64 {
	if e.SimData != nil {
		return e.SimData
	}
	return simdata.Simulations(spec.Sims, bins, spec.Seed)
}

// dest names a single-file op's output.
func (e *Env) dest(name string) string {
	if e.OutPath != "" {
		return e.OutPath
	}
	return filepath.Join(e.OutDir, name)
}

// report writes an analysis output through write and appends
// " → <path>" to the summary line; with no destination in the Env it
// writes nothing, and a failed write leaves no partial report behind.
func (e *Env) report(name string, summary *string, write func(io.Writer) error) ([]string, error) {
	if e.OutPath == "" && e.OutDir == "" {
		return nil, nil
	}
	dst := e.dest(name)
	f, err := os.Create(dst)
	if err != nil {
		return nil, err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(dst)
		return nil, err
	}
	if summary != nil {
		*summary += " → " + dst
	}
	return []string{dst}, nil
}

// statFiles stats each output path, returning base-name Files in the
// given order plus the total byte count.
func statFiles(paths []string) ([]File, int64, error) {
	var (
		files []File
		total int64
	)
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, 0, fmt.Errorf("engine: output %s: %w", p, err)
		}
		files = append(files, File{Name: filepath.Base(p), Size: fi.Size()})
		total += fi.Size()
	}
	return files, total, nil
}
