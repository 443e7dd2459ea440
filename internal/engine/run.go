package engine

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
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
	// this process's rank, Spec.Ranks is the world size, and rank 0's
	// Result is the world's.
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
	Files    []File // the outputs, in rank order
	BytesOut int64  // total size of Files
	// Records counts what the op produced: records converted, sorted or
	// tallied, histogram bins, peaks called.
	Records int64
	// Summary is what the op's CLI prints: one line describing the run,
	// or — flagstat — the report itself.
	Summary string
}

// Run executes one job: spec routed to its engine, input and outputs
// placed by env. Under a distributed launcher every process runs the
// same call sequence and the job ends in one gather to rank 0: rank 0
// returns the world's Result, every other rank an empty one.
func Run(spec Spec, env Env) (Result, error) {
	err := spec.Validate()
	if err == nil && env.Launch != nil {
		err = spec.CheckWorld()
	}
	if err != nil {
		return Result{}, err
	}
	env.Input = cmp.Or(env.Input, spec.InputPath)
	env.OutPrefix = cmp.Or(env.OutPrefix, "out")
	run := runAnalysis
	switch spec.Op {
	case OpConvert:
		run = runConvert
	case OpSort:
		run = runSort
	case OpNLMeans, OpFDR:
		run = runStats
	}
	ranks := max(spec.Ranks, 1)
	o, err := run(&spec, &env, ranks)
	if err == nil {
		o.Files, o.BytesOut, err = statFiles(o.paths)
	}
	if env.Launch != nil {
		o, err = gather(&env, ranks, o, err)
	}
	if err != nil || env.Rank != 0 {
		return Result{}, err
	}
	return Result{Files: o.Files, BytesOut: o.BytesOut, Records: o.Records, Summary: o.summary(&o)}, nil
}

// outcome is what one process did for a job: its ranks' tallies and
// the files they wrote, and on rank 0 the summary line, built from the
// world's figures.
type outcome struct {
	Records  int64  `json:"records"`
	Emitted  int64  `json:"emitted"` // convert: target objects written
	Files    []File `json:"files"`
	BytesOut int64  `json:"bytes_out"`     // total size of Files
	Err      string `json:"err,omitempty"` // the process's op failed

	paths   []string // what the op wrote, stat into Files
	summary func(world *outcome) string
}

// says is a summary that reads no world figure.
func says(s string) func(*outcome) string { return func(*outcome) string { return s } }

// gather ends a job on a distributed world: each process sends its own
// rank's outcome to rank 0, which sums the tallies and lists the files
// in rank order under its own summary. A process whose op failed sends
// its error instead, and rank 0 broadcasts the world's verdict — the
// first failed rank's error — so every process returns it.
func gather(env *Env, ranks int, local outcome, failed error) (outcome, error) {
	world := outcome{summary: local.summary}
	var verdict error
	err := env.Launch(ranks, func(c *mpi.Comm) error {
		var part outcome // an in-process launcher's other ranks add nothing
		if c.Rank() == env.Rank {
			part = local
			if failed != nil {
				part = outcome{Err: failed.Error()}
			}
		}
		data, err := json.Marshal(part)
		if err != nil {
			return err
		}
		parts, err := c.Gather(0, data)
		if err != nil {
			return err
		}
		var msg []byte
		for r, p := range parts { // rank 0 only
			var o outcome
			if err := json.Unmarshal(p, &o); err != nil {
				return fmt.Errorf("engine: a rank's outcome: %w", err)
			}
			if o.Err != "" && msg == nil {
				msg = fmt.Appendf(nil, "rank %d: %s", r, o.Err)
			}
			world.Records += o.Records
			world.Emitted += o.Emitted
			world.Files = append(world.Files, o.Files...)
			world.BytesOut += o.BytesOut
		}
		if msg, err = c.Bcast(0, msg); err == nil && len(msg) > 0 && c.Rank() == env.Rank {
			verdict = errors.New(string(msg))
		}
		return err
	})
	return world, cmp.Or(failed, verdict, err)
}

func runConvert(spec *Spec, env *Env, ranks int) (outcome, error) {
	kind, err := spec.ConverterKind()
	if err != nil {
		return outcome{}, err
	}
	if kind != "sam" && kind != "psam" && shard.Ext(env.Input) != "."+kind {
		// The provider is picked by extension: an explicit kind over
		// another container would read it as whatever its name says.
		return outcome{}, fmt.Errorf("engine: converter %s needs a .%s input, not %q", kind, kind, env.Input)
	}
	if spec.WritesContainer() {
		if kind == "sam" || kind == "psam" {
			// psam's preprocessing phase alone: one BAMX pair per rank.
			return preprocessSAM(env, ranks)
		}
		return rewrite(spec, env)
	}
	// Every worker count is left at 0, the adaptive rule.
	opts := conv.Options{Format: spec.Format, Cores: ranks, OutDir: env.OutDir, OutPrefix: env.OutPrefix, Launch: env.Launch}
	if spec.Region != "" {
		r, err := conv.ParseRegion(spec.Region)
		if err != nil {
			return outcome{}, err
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
		return outcome{}, err
	}
	st := res.Stats
	// A distributed launcher leaves the other processes' ranks unnamed.
	paths := slices.DeleteFunc(res.Files, func(p string) bool { return p == "" })
	return outcome{Records: st.Records, Emitted: st.Emitted, paths: paths, summary: func(w *outcome) string {
		s := fmt.Sprintf("converted %d records (%d emitted, %d bytes) into %d files in %v",
			w.Records, w.Emitted, w.BytesOut, len(w.Files), st.PartitionTime+st.ConvertTime)
		if st.PreprocessTime > 0 {
			s += fmt.Sprintf("\npreprocessing took %v (amortisable)", st.PreprocessTime)
		}
		return s
	}}, nil
}

// rewrite is a container target from a container input: the records in
// file order into one <OutPrefix>.bamx (with its BAIX) or .pamx, by
// rank 0 alone. The codec count 0 is the adaptive rule; shard.Rewrite's
// own default is 1.
func rewrite(spec *Spec, env *Env) (outcome, error) {
	if env.Rank != 0 {
		return outcome{}, nil
	}
	start := time.Now()
	dst := filepath.Join(env.OutDir, env.OutPrefix+"."+spec.Format)
	n, err := shard.Rewrite(env.Input, dst, shard.WithCodecWorkers(0))
	return outcome{Records: n, paths: shard.Outputs(dst),
		summary: says(fmt.Sprintf("converted %d records into %s in %v", n, dst, time.Since(start)))}, err
}

// preprocessSAM is a SAM input's bamx target, the preprocessing phase
// of the psam converter: <OutPrefix>_m<rank>.bamx and .baix per rank.
func preprocessSAM(env *Env, ranks int) (outcome, error) {
	res, err := conv.PreprocessSAMParallel(env.Input, conv.Options{
		Cores: ranks, OutDir: env.OutDir, OutPrefix: env.OutPrefix, Launch: env.Launch,
	})
	if err != nil {
		return outcome{}, err
	}
	var paths []string
	for i, bamx := range res.BAMXFiles {
		if bamx != "" { // "" for a rank another process ran
			paths = append(paths, bamx, res.BAIXFiles[i])
		}
	}
	return outcome{Records: res.Records, paths: paths, summary: func(w *outcome) string {
		var bamx []string
		for i := 0; i < len(w.Files); i += 2 { // .bamx, .baix per rank
			bamx = append(bamx, filepath.Join(env.OutDir, w.Files[i].Name))
		}
		return fmt.Sprintf("preprocessed %d records into %s in %v", w.Records, strings.Join(bamx, ", "), res.Duration)
	}}, nil
}

// runSort is the sorter, run by rank 0 alone.
func runSort(_ *Spec, env *Env, ranks int) (outcome, error) {
	run := sorter.SortBAM
	switch {
	case strings.HasSuffix(env.Input, ".sam"):
		run = sorter.SortSAMToBAM
	case !strings.HasSuffix(env.Input, ".bam"):
		return outcome{}, fmt.Errorf("engine: op sort needs a .sam or .bam input, not %q", env.Input)
	}
	if env.Rank != 0 {
		return outcome{}, nil
	}
	// The output's extension picks its container: .bam, .bamx or .pamx.
	dst := env.dest("out.bam")
	n, err := run(env.Input, dst, sorter.Options{ChunkRecords: env.ChunkRecords, Cores: ranks, TmpDir: env.OutDir})
	return outcome{Records: n, paths: shard.Outputs(dst), summary: says(fmt.Sprintf("sorted %d records → %s", n, dst))}, err
}

// runAnalysis is flagstat, hist and peaks: Algorithm 1 byte
// partitioning over SAM text, region-parallel shards over everything
// else, reduced to rank 0, which alone writes the report.
func runAnalysis(spec *Spec, env *Env, ranks int) (outcome, error) {
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
		return outcome{}, err
	}
	switch spec.Op {
	case OpFlagstat:
		// The summary is the report itself, with no arrow after it.
		summary := st.Format()
		o, err := env.report(st.Total, "flagstat.txt", "", func(w io.Writer) error {
			_, err := io.WriteString(w, summary)
			return err
		})
		o.summary = says(summary)
		return o, err
	case OpHist:
		return env.report(int64(len(h.Bins)), "hist.tsv",
			fmt.Sprintf("histogrammed %s into %d bins of %d bases", spec.RName, len(h.Bins), spec.BinSize),
			func(w io.Writer) error { return hist.WriteTSV(w, h.Bins) })
	}
	sims := env.simulations(spec, len(h.Bins))
	called, pt, rate, err := peaks.CallWithFDR(h.Bins, sims, spec.Candidates,
		peaks.Options{MaxGap: env.MaxGap, MinWidth: env.MinWidth})
	if err != nil {
		return outcome{}, err
	}
	return env.report(int64(len(called)), "peaks.tsv",
		fmt.Sprintf("called %d peaks on %s (p_t=%g, FDR=%.6g, %d simulations)", len(called), spec.RName, pt, rate, len(sims)),
		func(w io.Writer) error {
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
func runStats(spec *Spec, env *Env, ranks int) (outcome, error) {
	v, err := hist.ReadTSV(env.Input)
	if err != nil {
		return outcome{}, err
	}
	if spec.Op == OpNLMeans {
		p := nlmeans.Params{R: spec.R, L: spec.L, Sigma: spec.Sigma}
		denoised, err := mpi.RunRoot(env.Launch, ranks, func(c *mpi.Comm) ([]float64, error) {
			return nlmeans.DenoiseRanks(c, v, p)
		})
		if err != nil || env.Rank != 0 {
			return outcome{}, err
		}
		return env.report(int64(len(v)), "denoised.tsv",
			fmt.Sprintf("denoised %d bins (r=%d l=%d sigma=%g, %d ranks)", len(v), p.R, p.L, p.Sigma, ranks),
			func(w io.Writer) error { return hist.WriteTSV(w, denoised) })
	}
	sims := env.simulations(spec, len(v))
	rate, err := mpi.RunRoot(env.Launch, ranks, func(c *mpi.Comm) (float64, error) {
		return fdr.ParallelFused(c, v, sims, spec.PT)
	})
	if err != nil || env.Rank != 0 {
		return outcome{}, err
	}
	return env.report(int64(len(v)), "fdr.tsv",
		fmt.Sprintf("FDR(p_t=%g) = %.6g  (%d bins, %d simulations, %d ranks)", spec.PT, rate, len(v), len(sims), ranks),
		func(w io.Writer) error {
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

// report writes an analysis output through write and returns rank 0's
// outcome: records, the file, and summary with " → <path>" appended.
// With no destination in the Env it writes nothing, and a failed write
// leaves no partial report behind.
func (e *Env) report(records int64, name, summary string, write func(io.Writer) error) (outcome, error) {
	o := outcome{Records: records, summary: says(summary)}
	if e.OutPath == "" && e.OutDir == "" {
		return o, nil
	}
	dst := e.dest(name)
	f, err := os.Create(dst)
	if err != nil {
		return outcome{}, err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(dst)
		return outcome{}, err
	}
	o.paths, o.summary = []string{dst}, says(summary+" → "+dst)
	return o, nil
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
