// Engine dispatch: one job spec in, output files in the job directory
// out. This is the single routing table both sides of a distributed
// job execute — the daemon as rank 0 and every fleet worker as its own
// rank — so the call sequence against the launcher is identical by
// construction, which is what the mpinet transport's lockstep
// collectives require.

package daemon

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"parseq/internal/conv"
	"parseq/internal/flagstat"
	"parseq/internal/formats"
	"parseq/internal/formats/pamx"
	"parseq/internal/hist"
	"parseq/internal/mpi"
	"parseq/internal/peaks"
	"parseq/internal/shard"
	"parseq/internal/simdata"
	"parseq/internal/sorter"
)

// jobResult is what an executed job reports back into its record.
type jobResult struct {
	files    []FileInfo
	records  int64
	bytesOut int64
}

// distributable reports whether a spec's engine path runs the same
// launcher call sequence on every fleet process. Only the SAM-input
// engines qualify: the BAM/psam converters and the shard analyses
// aggregate per-process file lists that distributed execution leaves
// partially empty.
func distributable(spec *JobSpec) error {
	name := spec.inputName()
	switch spec.Op {
	case OpConvert:
		kind, err := spec.converterKind()
		if err != nil {
			return err
		}
		if kind != "sam" {
			return fmt.Errorf("daemon: converter %q does not support fleet ranks; use converter sam or ranks 1", kind)
		}
	case OpFlagstat, OpHist:
		if !strings.HasSuffix(name, ".sam") {
			return fmt.Errorf("daemon: op %s over %q does not support fleet ranks; use a .sam input or ranks 1", spec.Op, name)
		}
	default:
		return fmt.Errorf("daemon: op %s does not support fleet ranks", spec.Op)
	}
	return nil
}

// runEngines executes one job: spec routed to the engine, input read
// from inputPath, outputs written under dir. launch is nil for
// in-process ranks or a distributed world's launcher; ranks is the
// world size and rank the local rank either way. Distributed callers
// must run the same sequence on every rank; analysis outputs are
// written (and stat'd) by rank 0 only, and distributed convert defers
// its output stat to the caller's post-barrier convertOutputs — worker
// ranks may still be flushing when rank 0's engine returns.
func runEngines(spec *JobSpec, inputPath, dir string, launch mpi.Launcher, ranks, rank int) (jobResult, error) {
	switch spec.Op {
	case OpConvert:
		return runConvert(spec, inputPath, dir, launch, ranks)
	case OpSort:
		return runSort(spec, inputPath, dir, ranks)
	case OpFlagstat:
		return runFlagstat(spec, inputPath, dir, launch, ranks, rank)
	case OpHist:
		return runHist(spec, inputPath, dir, launch, ranks, rank)
	case OpPeaks:
		return runPeaks(spec, inputPath, dir, ranks)
	}
	return jobResult{}, fmt.Errorf("daemon: unknown op %q", spec.Op)
}

func runConvert(spec *JobSpec, inputPath, dir string, launch mpi.Launcher, ranks int) (jobResult, error) {
	kind, err := spec.converterKind()
	if err != nil {
		return jobResult{}, err
	}
	format := spec.Format
	if format == "" {
		format = "sam"
	}
	opts := conv.Options{
		Format: format, Cores: ranks, OutDir: dir, OutPrefix: "out",
		CodecWorkers: spec.CodecWorkers, ParseWorkers: spec.ParseWorkers,
		Launch: launch,
	}
	if spec.Region != "" {
		r, err := conv.ParseRegion(spec.Region)
		if err != nil {
			return jobResult{}, err
		}
		opts.Region = &r
	}

	// The columnar converter stands apart from the per-rank Result
	// shape, exactly as in seqconvert: one file either direction.
	if kind == "pamx" {
		return runPAMX(spec, inputPath, dir)
	}

	var res *conv.Result
	switch kind {
	case "sam":
		res, err = conv.ConvertSAM(inputPath, opts)
	case "psam":
		res, err = conv.ConvertSAMPreprocessed(inputPath, ranks, opts)
	case "bam":
		if ranks > 1 {
			res, err = conv.ConvertBAM(inputPath, opts)
			break
		}
		res, err = conv.ConvertBAMSequential(inputPath, opts)
	case "bamx":
		res, err = conv.ConvertBAMX(inputPath, sidecarIndex(inputPath, ".bamx"), opts)
	case "bamz":
		res, err = conv.ConvertBAMZ(inputPath, sidecarIndex(inputPath, ".bamz"), opts)
	default:
		err = fmt.Errorf("daemon: unknown converter %q", kind)
	}
	if err != nil {
		return jobResult{}, err
	}

	if launch != nil {
		// Peer ranks may still be flushing their files: the records
		// tally is local-rank-only and the caller fills in the file
		// list after the settle barrier (convertOutputs).
		return jobResult{records: res.Stats.Records}, nil
	}
	files, total, err := fileInfos(res.Files)
	if err != nil {
		return jobResult{}, err
	}
	return jobResult{files: files, records: res.Stats.Records, bytesOut: total}, nil
}

// convertOutputs stats the reconstructed per-rank convert outputs; the
// fleet calls it after the settle barrier, once every rank's files are
// durable.
func convertOutputs(spec *JobSpec, dir string, ranks int) ([]FileInfo, int64, error) {
	format := spec.Format
	if format == "" {
		format = "sam"
	}
	paths, err := expectedConvertFiles(dir, format, ranks)
	if err != nil {
		return nil, 0, err
	}
	return fileInfos(paths)
}

// sidecarIndex returns the BAIX path next to a BAMX/BAMZ input when it
// exists; "" lets the converter rebuild the index by scanning (the
// uploaded-input case, where no sidecar was shipped).
func sidecarIndex(inputPath, ext string) string {
	ix := strings.TrimSuffix(inputPath, ext) + ".baix"
	if _, err := os.Stat(ix); err != nil {
		return ""
	}
	return ix
}

// expectedConvertFiles reconstructs the converter runtime's per-rank
// output names: <dir>/out_p<rank><ext>.
func expectedConvertFiles(dir, format string, ranks int) ([]string, error) {
	ext := ".bam"
	if format != "bam" {
		enc, err := formats.New(format)
		if err != nil {
			return nil, err
		}
		ext = enc.Extension()
	}
	paths := make([]string, ranks)
	for r := range paths {
		paths[r] = filepath.Join(dir, fmt.Sprintf("out_p%03d%s", r, ext))
	}
	return paths, nil
}

func runPAMX(spec *JobSpec, inputPath, dir string) (jobResult, error) {
	popts := pamx.Options{CodecWorkers: spec.CodecWorkers}
	var (
		dst   string
		count int64
		err   error
	)
	switch {
	case strings.HasSuffix(inputPath, ".pamx"):
		dst = filepath.Join(dir, "out.bam")
		count, err = pamx.ToBAM(inputPath, dst, popts)
	case strings.HasSuffix(inputPath, ".bamx"):
		dst = filepath.Join(dir, "out.pamx")
		count, err = pamx.FromBAMX(inputPath, dst, popts)
	case strings.HasSuffix(inputPath, ".bam"):
		dst = filepath.Join(dir, "out.pamx")
		count, err = pamx.FromBAM(inputPath, dst, popts)
	default:
		err = fmt.Errorf("daemon: converter pamx needs a .bam, .bamx or .pamx input")
	}
	if err != nil {
		return jobResult{}, err
	}
	files, total, err := fileInfos([]string{dst})
	if err != nil {
		return jobResult{}, err
	}
	return jobResult{files: files, records: count, bytesOut: total}, nil
}

func runSort(spec *JobSpec, inputPath, dir string, ranks int) (jobResult, error) {
	opts := sorter.Options{Cores: ranks, CodecWorkers: spec.CodecWorkers, TmpDir: dir}
	dst := filepath.Join(dir, "out.bam")
	var (
		n   int64
		err error
	)
	switch {
	case strings.HasSuffix(inputPath, ".sam"):
		n, err = sorter.SortSAMToBAM(inputPath, dst, opts)
	case strings.HasSuffix(inputPath, ".bam"):
		n, err = sorter.SortBAM(inputPath, dst, opts)
	default:
		err = fmt.Errorf("daemon: op sort needs a .sam or .bam input")
	}
	if err != nil {
		return jobResult{}, err
	}
	files, total, err := fileInfos([]string{dst})
	if err != nil {
		return jobResult{}, err
	}
	return jobResult{files: files, records: n, bytesOut: total}, nil
}

// shardConfig maps the spec's analysis tuning onto the region-parallel
// layer.
func shardConfig(spec *JobSpec, launch mpi.Launcher, ranks int) shard.Config {
	return shard.Config{
		Ranks: ranks, Workers: spec.Workers, TargetShards: spec.Shards,
		Launch: launch,
	}
}

func runFlagstat(spec *JobSpec, inputPath, dir string, launch mpi.Launcher, ranks, rank int) (jobResult, error) {
	var (
		st  flagstat.Stats
		err error
	)
	if strings.HasSuffix(inputPath, ".sam") {
		st, err = flagstat.SAMFile(inputPath, ranks, launch)
	} else {
		p := shard.OpenPathProvider(inputPath)
		defer p.Close()
		st, err = flagstat.Sharded(p, shardConfig(spec, launch, ranks))
	}
	if err != nil {
		return jobResult{}, err
	}
	if rank != 0 {
		// Only the root rank holds the reduced stats and writes the
		// report; a worker writing too would race it on the shared dir.
		return jobResult{}, nil
	}
	dst := filepath.Join(dir, "flagstat.txt")
	if err := os.WriteFile(dst, []byte(st.Format()), 0o644); err != nil {
		return jobResult{}, err
	}
	files, total, err := fileInfos([]string{dst})
	if err != nil {
		return jobResult{}, err
	}
	return jobResult{files: files, records: st.Total, bytesOut: total}, nil
}

func runHist(spec *JobSpec, inputPath, dir string, launch mpi.Launcher, ranks, rank int) (jobResult, error) {
	h, err := buildHist(spec, inputPath, launch, ranks)
	if err != nil {
		return jobResult{}, err
	}
	if rank != 0 {
		return jobResult{}, nil // merged histogram lives at the root rank
	}
	dst := filepath.Join(dir, "hist.tsv")
	f, err := os.Create(dst)
	if err != nil {
		return jobResult{}, err
	}
	if err := hist.WriteTSV(f, h.Bins); err != nil {
		f.Close()
		return jobResult{}, err
	}
	if err := f.Close(); err != nil {
		return jobResult{}, err
	}
	files, total, err := fileInfos([]string{dst})
	if err != nil {
		return jobResult{}, err
	}
	return jobResult{files: files, records: int64(len(h.Bins)), bytesOut: total}, nil
}

func buildHist(spec *JobSpec, inputPath string, launch mpi.Launcher, ranks int) (*hist.Histogram, error) {
	if strings.HasSuffix(inputPath, ".sam") {
		return hist.FromSAMParallel(inputPath, spec.RName, spec.BinSize, ranks, launch)
	}
	p := shard.OpenPathProvider(inputPath)
	defer p.Close()
	return hist.FromProvider(p, spec.RName, spec.BinSize, shardConfig(spec, launch, ranks))
}

func runPeaks(spec *JobSpec, inputPath, dir string, ranks int) (jobResult, error) {
	h, err := buildHist(spec, inputPath, nil, ranks)
	if err != nil {
		return jobResult{}, err
	}
	sims := simdata.Simulations(spec.Sims, len(h.Bins), spec.Seed)
	called, pt, rate, err := peaks.CallWithFDR(h.Bins, sims, spec.Candidates, peaks.Options{})
	if err != nil {
		return jobResult{}, err
	}
	dst := filepath.Join(dir, "peaks.tsv")
	f, err := os.Create(dst)
	if err != nil {
		return jobResult{}, err
	}
	fmt.Fprintf(f, "# rname=%s bin=%d p_t=%g fdr=%.6g\n", spec.RName, spec.BinSize, pt, rate)
	fmt.Fprintln(f, "start\tend\tmax_value\tmin_survive")
	for _, p := range called {
		fmt.Fprintf(f, "%d\t%d\t%g\t%d\n", p.Start, p.End, p.MaxValue, p.MinSurvive)
	}
	if err := f.Close(); err != nil {
		return jobResult{}, err
	}
	files, total, err := fileInfos([]string{dst})
	if err != nil {
		return jobResult{}, err
	}
	return jobResult{files: files, records: int64(len(called)), bytesOut: total}, nil
}

// fileInfos stats each output path, returning base-name FileInfos in
// the given order plus the total byte count.
func fileInfos(paths []string) ([]FileInfo, int64, error) {
	files := make([]FileInfo, 0, len(paths))
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, 0, fmt.Errorf("daemon: output %s: %w", p, err)
		}
		files = append(files, FileInfo{Name: filepath.Base(p), Size: fi.Size()})
		total += fi.Size()
	}
	return files, total, nil
}
