// Command ngsbench regenerates the paper's evaluation: Table I and
// Figures 6-12. Sequential runs are measured for real on a scaled
// synthetic dataset; multi-core points come from the calibrated cluster
// model (see DESIGN.md for the substitution rationale).
//
// Usage:
//
//	ngsbench                    # every table and figure
//	ngsbench -exp fig8          # one experiment
//	ngsbench -reads 100000      # larger measured workload
//
// With -transport tcp the binary instead runs the distributed suite —
// converter, histogram, flagstat and FDR across a multi-process rank
// world (start one process per rank):
//
//	ngsbench -transport tcp -world 2 -rank 0 -coord :9900
//	ngsbench -transport tcp -world 2 -rank 1 -coord host0:9900
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"parseq"
	"parseq/internal/experiments"
	"parseq/internal/mpiflag"
	"parseq/internal/obsflag"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: all, "+strings.Join(parseq.Experiments(), ", "))
		reads      = flag.Int("reads", 0, "alignment records in the measured dataset")
		bins       = flag.Int("bins", 0, "histogram bins for the statistical experiments")
		sims       = flag.Int("sims", 0, "FDR simulation datasets")
		tmp        = flag.String("tmpdir", "", "scratch directory (default: a fresh temp dir)")
		keep       = flag.Bool("keep", false, "keep scratch files")
		codec      = flag.Int("codec-workers", 0, "BGZF codec goroutines for BAM/BAMZ steps (0: auto, one per CPU capped; 1: sequential codec)")
		parse      = flag.Int("parse-workers", 0, "per-rank SAM parse/encode goroutines for the measured text conversions (0: auto; 1: sequential)")
		daemonURL  = flag.String("daemon", "", "submit a job to a seqconvd at this base URL instead of running experiments")
		daemonSpec = flag.String("daemon-spec", "", "job spec JSON for -daemon")
		daemonIn   = flag.String("daemon-in", "", "input file streamed with the -daemon submission (otherwise the spec's input_path is used)")
		daemonOut  = flag.String("daemon-out", "-", "result destination for -daemon: a file, a directory for multi-file results, or - for stdout")
		daemonFile = flag.String("daemon-file", "", "output file name to fetch for -daemon multi-file results")
		daemonVer  = flag.String("daemon-verify", "", "compare the -daemon result byte-for-byte against this local file")
		obsFlags   = obsflag.Register(nil)
		mpiFlags   = mpiflag.Register(nil)
	)
	flag.Parse()

	if *daemonURL != "" {
		if err := runDaemonClient(*daemonURL, *daemonSpec, *daemonIn, *daemonOut, *daemonFile, *daemonVer); err != nil {
			die(err)
		}
		return
	}

	sess, err := mpiFlags.Start("ngsbench", obsFlags)
	if err != nil {
		die(err)
	}
	defer sess.Close()

	sc := experiments.DefaultScale()
	if *reads > 0 {
		sc.Reads = *reads
	}
	if *bins > 0 {
		sc.Bins = *bins
	}
	if *sims > 0 {
		sc.Sims = *sims
	}
	sc.TmpDir = *tmp
	sc.KeepTmp = *keep
	sc.CodecWorkers = *codec
	sc.ParseWorkers = *parse

	if sess.Distributed() {
		if err := runDistributed(sess, sc, *tmp, *keep); err != nil {
			die(err)
		}
		return
	}

	if *exp == "all" {
		if err := parseq.RunAllExperiments(os.Stdout, sc); err != nil {
			die(err)
		}
		return
	}
	if err := parseq.RunExperiment(os.Stdout, *exp, sc); err != nil {
		die(err)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "ngsbench:", err)
	os.Exit(1)
}
