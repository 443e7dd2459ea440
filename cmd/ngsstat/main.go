// Command ngsstat runs the parallel statistical analysis module:
// coverage histogram construction region-parallel over genomic shards,
// non-local means denoising, false discovery rate computation, and
// FDR-thresholded peak calling over the sharded histogram. Every op is
// one engine job: -in is an alignment file for hist and peaks and a
// histogram TSV (hist's output) for nlmeans and fdr.
//
// Usage:
//
//	ngsstat -op hist -in chip.bam -rname chr1 -bin 200 -out chip.hist.tsv -p 4
//	ngsstat -op nlmeans -in chip.hist.tsv -out denoised.tsv -r 80 -l 15 -sigma 10 -p 8
//	ngsstat -op fdr -in chip.hist.tsv -sims 'chip.sim*.tsv' -pt 20 -p 8
//	ngsstat -op peaks -in chip.bam -rname chr1 -sims 'chip.sim*.tsv' -candidates 1,2,5 -p 4
//
// With -transport tcp the command becomes one rank of a multi-process
// world: the ranks split the work, and rank 0 reduces or gathers their
// parts and alone prints and writes the result.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"parseq/internal/engine"
	"parseq/internal/hist"
	"parseq/internal/mpiflag"
	"parseq/internal/obsflag"
)

// options is one invocation: the job the flags describe, the glob of
// simulation datasets that fills env.SimData, and the session flags.
type options struct {
	spec engine.Spec
	env  engine.Env
	sims string

	obsFlags *obsflag.Flags
	mpiFlags *mpiflag.Flags
}

// parse maps the command line onto the engine's job description.
func parse(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{obsFlags: obsflag.Register(fs), mpiFlags: mpiflag.Register(fs)}
	var cands string
	fs.StringVar(&o.spec.Op, "op", "", "operation: hist, peaks, nlmeans or fdr")
	fs.StringVar(&o.spec.InputPath, "in", "", "input: an alignment file, .sam or "+strings.Join(engine.InputExts(engine.OpHist), ", ")+
		" (hist, peaks), or a histogram TSV, one value per line (nlmeans, fdr)")
	fs.StringVar(&o.spec.RName, "rname", "", "reference name to histogram (hist, peaks)")
	fs.IntVar(&o.spec.BinSize, "bin", 200, "histogram bin width in bases (hist, peaks)")
	fs.IntVar(&o.spec.Shards, "shards", 0, "target shard count across the world (0: auto)")
	fs.StringVar(&o.env.OutPath, "out", "", "output path (hist, peaks, nlmeans; fdr writes one only when set)")
	fs.IntVar(&o.spec.R, "r", 20, "NL-means search range radius")
	fs.IntVar(&o.spec.L, "l", 15, "NL-means half patch size")
	fs.Float64Var(&o.spec.Sigma, "sigma", 10, "NL-means filtering parameter")
	fs.IntVar(&o.spec.Ranks, "p", 1, "parallel ranks")
	fs.StringVar(&o.sims, "sims", "", "glob of simulation datasets (fdr, peaks)")
	fs.Float64Var(&o.spec.PT, "pt", 1, "FDR threshold p_t")
	fs.StringVar(&cands, "candidates", "1,2,5,10,20", "comma-separated p_t candidates (peaks)")
	fs.IntVar(&o.env.MaxGap, "maxgap", 1, "merge peak runs separated by at most this many bins (peaks)")
	fs.IntVar(&o.env.MinWidth, "minwidth", 2, "drop peaks narrower than this many bins (peaks)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	op := o.spec.Op
	switch {
	case op == "":
		return nil, fmt.Errorf("-op is required")
	case op != engine.OpHist && op != engine.OpPeaks && op != engine.OpNLMeans && op != engine.OpFDR:
		return nil, fmt.Errorf("unknown -op %q (want hist, peaks, nlmeans or fdr)", op)
	case o.spec.InputPath == "":
		return nil, fmt.Errorf("-op %s requires -in", op)
	case (op == engine.OpHist || op == engine.OpPeaks) && o.spec.RName == "":
		return nil, fmt.Errorf("-op %s requires -rname", op)
	case (op == engine.OpPeaks || op == engine.OpFDR) && o.sims == "":
		return nil, fmt.Errorf("-op %s requires -sims", op)
	}
	switch {
	case o.env.OutPath != "" || op == engine.OpFDR:
	case op == engine.OpNLMeans:
		o.env.OutPath = o.spec.InputPath + ".denoised"
	default:
		o.env.OutPath = o.spec.InputPath + "." + op + ".tsv"
	}
	if op == engine.OpPeaks {
		for _, s := range strings.Split(cands, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return nil, fmt.Errorf("-candidates: %w", err)
			}
			o.spec.Candidates = append(o.spec.Candidates, v)
		}
	}
	return o, nil
}

func main() {
	o, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ngsstat:", err)
		flag.Usage()
		os.Exit(2)
	}
	sess, err := o.mpiFlags.Start("ngsstat", o.obsFlags)
	if err != nil {
		die(err)
	}
	defer sess.Close()
	if o.spec.Op == engine.OpPeaks || o.spec.Op == engine.OpFDR {
		o.env.SimData = readSims(o.sims)
	}
	o.spec.Ranks = sess.Ranks(o.spec.Ranks)
	o.env.Launch, o.env.Rank = sess.Launcher(), sess.Rank()
	res, err := engine.Run(o.spec, o.env)
	if err != nil {
		die(err)
	}
	// Under a distributed launch only rank 0 holds the result; other
	// ranks have nothing to report.
	if res.Summary != "" {
		fmt.Println(res.Summary)
	}
}

// readSims loads the simulation datasets a glob names, in name order.
func readSims(glob string) [][]float64 {
	paths, err := filepath.Glob(glob)
	if err != nil {
		die(err)
	}
	if len(paths) == 0 {
		die(fmt.Errorf("no simulation datasets match %q", glob))
	}
	sort.Strings(paths)
	simData := make([][]float64, len(paths))
	for i, p := range paths {
		if simData[i], err = hist.ReadTSV(p); err != nil {
			die(err)
		}
	}
	return simData
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "ngsstat:", err)
	os.Exit(1)
}
