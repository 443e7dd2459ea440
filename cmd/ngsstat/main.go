// Command ngsstat runs the parallel statistical analysis module:
// coverage histogram construction region-parallel over genomic shards,
// non-local means denoising, false discovery rate computation, and
// FDR-thresholded peak calling over the sharded histogram.
//
// Usage:
//
//	ngsstat -op hist -bam chip.bam -rname chr1 -bin 200 -out chip.hist.tsv -p 4
//	ngsstat -op nlmeans -in chip.hist.tsv -out denoised.tsv -r 80 -l 15 -sigma 10 -p 8
//	ngsstat -op fdr -in chip.hist.tsv -sims 'chip.sim*.tsv' -pt 20 -p 8
//	ngsstat -op peaks -bam chip.bam -rname chr1 -sims 'chip.sim*.tsv' -candidates 1,2,5 -p 4
//
// With -transport tcp the hist path becomes one rank of a multi-process
// world: rank 0 scatters shard descriptors and reduces the per-rank
// partial histograms.
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
	"parseq/internal/fdr"
	"parseq/internal/hist"
	"parseq/internal/mpi"
	"parseq/internal/mpiflag"
	"parseq/internal/nlmeans"
	"parseq/internal/obsflag"
)

// options is one invocation. hist and peaks are engine jobs, described
// by spec and env; nlmeans and fdr work on histogram files and have no
// job-spec twin.
type options struct {
	spec engine.Spec
	env  engine.Env

	in, sims string
	r, l     int
	sigma    float64
	pt       float64

	obsFlags *obsflag.Flags
	mpiFlags *mpiflag.Flags
}

// parse maps the command line onto the engine's job description.
func parse(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{obsFlags: obsflag.Register(fs), mpiFlags: mpiflag.Register(fs)}
	var cands string
	fs.StringVar(&o.spec.Op, "op", "", "operation: hist, peaks, nlmeans or fdr")
	fs.StringVar(&o.in, "in", "", "histogram dataset (one value per line)")
	fs.StringVar(&o.spec.InputPath, "bam", "", "alignment file, .sam or "+strings.Join(engine.InputExts(engine.OpHist), ", ")+" (hist, peaks)")
	fs.StringVar(&o.spec.RName, "rname", "", "reference name to histogram (hist, peaks)")
	fs.IntVar(&o.spec.BinSize, "bin", 200, "histogram bin width in bases (hist, peaks)")
	fs.IntVar(&o.spec.Shards, "shards", 0, "target shard count across the world (0: auto)")
	fs.IntVar(&o.spec.Workers, "workers", 0, "shard workers per rank (0: one per CPU, capped)")
	fs.StringVar(&o.env.OutPath, "out", "", "output path (hist, peaks, nlmeans)")
	fs.IntVar(&o.r, "r", 20, "NL-means search range radius")
	fs.IntVar(&o.l, "l", 15, "NL-means half patch size")
	fs.Float64Var(&o.sigma, "sigma", 10, "NL-means filtering parameter")
	fs.IntVar(&o.spec.Ranks, "p", 1, "parallel workers/ranks")
	fs.StringVar(&o.sims, "sims", "", "glob of simulation datasets (fdr, peaks)")
	fs.Float64Var(&o.pt, "pt", 1, "FDR threshold p_t")
	fs.StringVar(&cands, "candidates", "1,2,5,10,20", "comma-separated p_t candidates (peaks)")
	fs.IntVar(&o.env.MaxGap, "maxgap", 1, "merge peak runs separated by at most this many bins (peaks)")
	fs.IntVar(&o.env.MinWidth, "minwidth", 2, "drop peaks narrower than this many bins (peaks)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch op := o.spec.Op; op {
	case "":
		return nil, fmt.Errorf("-op is required")
	case engine.OpHist, engine.OpPeaks:
		if o.spec.InputPath == "" || o.spec.RName == "" {
			return nil, fmt.Errorf("-op %s requires -bam and -rname", op)
		}
		if o.env.OutPath == "" {
			o.env.OutPath = o.spec.InputPath + "." + op + ".tsv"
		}
		if op == engine.OpHist {
			break
		}
		if o.sims == "" {
			return nil, fmt.Errorf("-op peaks requires -sims")
		}
		for _, s := range strings.Split(cands, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return nil, fmt.Errorf("-candidates: %w", err)
			}
			o.spec.Candidates = append(o.spec.Candidates, v)
		}
	case "nlmeans", "fdr":
		// -bam, -rname and the shard tuning do not apply.
	default:
		return nil, fmt.Errorf("unknown -op %q (want hist, peaks, nlmeans or fdr)", op)
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
	cores := sess.Ranks(o.spec.Ranks)

	switch o.spec.Op {
	case engine.OpHist, engine.OpPeaks:
		if o.spec.Op == engine.OpPeaks {
			o.env.SimData = readSims(o.sims)
		}
		o.spec.Ranks = cores
		o.env.Launch, o.env.Rank = sess.Launcher(), sess.Rank()
		res, err := engine.Run(o.spec, o.env)
		if err != nil {
			die(err)
		}
		// Under a distributed launch only rank 0 holds the reduced
		// histogram; other ranks have nothing to report.
		if res.Summary != "" {
			fmt.Println(res.Summary)
		}

	case "nlmeans":
		histogram := requireTSV(o.in, o.spec.Op)
		p := nlmeans.Params{R: o.r, L: o.l, Sigma: o.sigma}
		denoised, err := nlmeans.DenoiseParallel(histogram, p, cores)
		if err != nil {
			die(err)
		}
		dst := o.env.OutPath
		if dst == "" {
			dst = o.in + ".denoised"
		}
		f, err := os.Create(dst)
		if err != nil {
			die(err)
		}
		if err := hist.WriteTSV(f, denoised); err != nil {
			f.Close()
			die(err)
		}
		if err := f.Close(); err != nil {
			die(err)
		}
		fmt.Printf("denoised %d bins (r=%d l=%d sigma=%g, %d workers) → %s\n",
			len(denoised), o.r, o.l, o.sigma, cores, dst)

	case "fdr":
		histogram := requireTSV(o.in, o.spec.Op)
		if o.sims == "" {
			die(fmt.Errorf("-op fdr requires -sims"))
		}
		simData := readSims(o.sims)
		// Algorithm 2 on `cores` in-process ranks; rank 0 holds the result.
		var v float64
		err := mpi.Run(cores, func(c *mpi.Comm) error {
			rate, err := fdr.ParallelFused(c, histogram, simData, o.pt)
			if c.Rank() == 0 {
				v = rate
			}
			return err
		})
		if err != nil {
			die(err)
		}
		fmt.Printf("FDR(p_t=%g) = %.6g  (%d bins, %d simulations, %d ranks)\n",
			o.pt, v, len(histogram), len(simData), cores)
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
		simData[i] = readTSV(p)
	}
	return simData
}

func requireTSV(path, op string) []float64 {
	if path == "" {
		die(fmt.Errorf("-op %s requires -in", op))
	}
	return readTSV(path)
}

func readTSV(path string) []float64 {
	f, err := os.Open(path)
	if err != nil {
		die(err)
	}
	defer f.Close()
	v, err := hist.ReadTSV(f)
	if err != nil {
		die(fmt.Errorf("%s: %w", path, err))
	}
	return v
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "ngsstat:", err)
	os.Exit(1)
}
