package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"parseq"
	"parseq/internal/engine"
	"parseq/internal/experiments"
	"parseq/internal/hist"
	"parseq/internal/mpiflag"
)

// runDistributed exercises the analysis pipeline across a TCP rank
// world: the measured converter, histogram construction, flagstat,
// NL-means and the Algorithm 2 FDR reduction all run with this process
// as one rank. Every process generates the same deterministic datasets
// (each needs a local copy of the input — ranks may sit on different
// hosts), runs the same sequence of worlds, and rank 0 reports. This is
// the real multi-process counterpart of the calibrated cluster model
// the figures use.
func runDistributed(sess *mpiflag.Session, sc experiments.Scale) error {
	rank, ranks := sess.Rank(), sess.Ranks(0)
	tmp := sc.TmpDir
	if tmp == "" {
		dir, err := os.MkdirTemp("", "ngsbench-dist-*")
		if err != nil {
			return err
		}
		if !sc.KeepTmp {
			defer os.RemoveAll(dir)
		}
		tmp = dir
	}

	ds := parseq.GenerateDataset(parseq.DefaultDatasetConfig(sc.Reads))
	samPath, histPath := filepath.Join(tmp, "dist.sam"), filepath.Join(tmp, "dist.hist.tsv")
	histogram := parseq.GenerateHistogram(sc.Bins, 42)
	if err := writeFile(samPath, ds.WriteSAM); err != nil {
		return err
	}
	if err := writeFile(histPath, func(w io.Writer) error { return hist.WriteTSV(w, histogram) }); err != nil {
		return err
	}
	if rank == 0 {
		fmt.Printf("distributed suite: %d ranks, %d reads, input %s\n", ranks, sc.Reads, samPath)
	}

	// The engine jobs run exactly as a seqconvd fleet runs them: one
	// spec, every rank calling engine.Run on the shared launcher. The
	// converter writes each rank's Algorithm 1 partition into its own
	// file; hist and flagstat reduce the ranks' partial tallies at rank
	// 0; NL-means gathers the ranks' spans there; and FDR is Algorithm
	// 2's fused single-synchronisation reduction.
	env := engine.Env{OutDir: tmp, OutPrefix: "dist", Launch: sess.Launcher(), Rank: rank,
		SimData: parseq.GenerateSimulations(sc.Sims, sc.Bins, 43)}
	for _, spec := range []engine.Spec{
		{Op: engine.OpConvert, InputPath: samPath, Format: "sam"},
		{Op: engine.OpHist, InputPath: samPath, RName: ds.Header.RefByID(0).Name, BinSize: 100},
		{Op: engine.OpFlagstat, InputPath: samPath},
		{Op: engine.OpNLMeans, InputPath: histPath, R: 20, L: 15, Sigma: 10},
		{Op: engine.OpFDR, InputPath: histPath, PT: 4},
	} {
		spec.Ranks = ranks
		start := time.Now()
		res, err := engine.Run(spec, env)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Op, err)
		}
		if rank == 0 {
			summary, _, _ := strings.Cut(res.Summary, "\n")
			fmt.Printf("%-9s %s [%v]\n", spec.Op, summary, time.Since(start))
		}
	}
	return nil
}

// writeFile creates path and fills it through write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
