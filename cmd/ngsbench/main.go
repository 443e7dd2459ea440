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
	sc := experiments.DefaultScale()
	flag.IntVar(&sc.Reads, "reads", sc.Reads, "alignment records in the measured dataset")
	flag.IntVar(&sc.Bins, "bins", sc.Bins, "histogram bins for the statistical experiments")
	flag.IntVar(&sc.Sims, "sims", sc.Sims, "FDR simulation datasets")
	flag.StringVar(&sc.TmpDir, "tmpdir", "", "scratch directory (default: a fresh temp dir)")
	flag.BoolVar(&sc.KeepTmp, "keep", false, "keep scratch files")
	var (
		exp        = flag.String("exp", "all", "experiment: all, "+strings.Join(parseq.Experiments(), ", "))
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

	if sess.Distributed() {
		if err := runDistributed(sess, sc); err != nil {
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
