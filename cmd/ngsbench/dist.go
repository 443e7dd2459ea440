package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"parseq"
	"parseq/internal/engine"
	"parseq/internal/experiments"
	"parseq/internal/fdr"
	"parseq/internal/mpi"
	"parseq/internal/mpiflag"
)

// runDistributed exercises the analysis pipeline across a TCP rank
// world: the measured converter, histogram construction, flagstat and
// the Algorithm 2 FDR reduction all run with this process as one rank.
// Every process generates the same deterministic dataset (each needs a
// local copy of the input — ranks may sit on different hosts), runs the
// same sequence of worlds, and rank 0 reports. This is the real
// multi-process counterpart of the calibrated cluster model the
// figures use.
func runDistributed(sess *mpiflag.Session, sc experiments.Scale) error {
	rank, ranks := sess.Rank(), sess.Ranks(0)
	launch := sess.Launcher()
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
	samPath := filepath.Join(tmp, "dist.sam")
	sf, err := os.Create(samPath)
	if err != nil {
		return err
	}
	if err := ds.WriteSAM(sf); err != nil {
		sf.Close()
		return err
	}
	if err := sf.Close(); err != nil {
		return err
	}
	report := func(format string, args ...any) {
		if rank == 0 {
			fmt.Printf(format, args...)
		}
	}
	report("distributed suite: %d ranks, %d reads, input %s\n", ranks, sc.Reads, samPath)

	// The three engine jobs run exactly as a seqconvd fleet runs them:
	// one spec, every rank calling engine.Run on the shared launcher.
	env := engine.Env{OutDir: tmp, OutPrefix: "dist", Launch: launch, Rank: rank}
	job := func(spec engine.Spec) (int64, time.Duration, error) {
		spec.InputPath, spec.Ranks = samPath, ranks
		start := time.Now()
		res, err := engine.Run(spec, env)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", spec.Op, err)
		}
		return res.Records, time.Since(start), nil
	}

	// Converter: each rank converts its Algorithm 1 partition into its
	// own target file.
	n, took, err := job(engine.Spec{Op: engine.OpConvert, Format: "sam"})
	if err != nil {
		return err
	}
	report("convert     %8d records on rank 0 in %v\n", n, took)

	// Histogram: partition, accumulate, gather-reduce at rank 0.
	rname := ds.Header.RefByID(0).Name
	n, took, err = job(engine.Spec{Op: engine.OpHist, RName: rname, BinSize: 100})
	if err != nil {
		return err
	}
	report("hist        %8d bins for %s in %v\n", n, rname, took)

	// Flagstat: partition, tally, gather-merge at rank 0.
	n, took, err = job(engine.Spec{Op: engine.OpFlagstat})
	if err != nil {
		return err
	}
	report("flagstat    %8d records in %v\n", n, took)

	// FDR: Algorithm 2's fused single-synchronisation reduction.
	bins, sims := sc.Bins, sc.Sims
	histogram := parseq.GenerateHistogram(bins, 42)
	simsets := parseq.GenerateSimulations(sims, bins, 43)
	var rate float64
	start := time.Now()
	err = launch(ranks, func(c *mpi.Comm) error {
		v, err := fdr.ParallelFused(c, histogram, simsets, 4.0)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			rate = v
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("fdr: %w", err)
	}
	report("fdr         FDR(4.0) = %.6f over %d sims in %v\n", rate, sims, time.Since(start))
	return nil
}
