// Command samstat prints samtools-flagstat-style summary statistics,
// computed in parallel with the framework's Algorithm 1 partitioning
// for SAM input or region-parallel over genomic shards for BAM, BAMX
// or PAMX input.
//
// Usage:
//
//	samstat -in reads.sam -p 8
//	samstat -bam reads.bam -p 2 -workers 4 -shards 32
//	samstat -bam reads.bamx -metrics-addr :9100
//
// With -transport tcp the command becomes one rank of a multi-process
// world: rank 0 scatters the work and reduces the per-rank partial
// tallies.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"parseq/internal/engine"
	"parseq/internal/mpiflag"
	"parseq/internal/obsflag"
)

// options is one invocation: the flagstat job the flags describe plus
// the session flags.
type options struct {
	spec     engine.Spec
	obsFlags *obsflag.Flags
	mpiFlags *mpiflag.Flags
}

// parse maps the command line onto the engine's job description.
func parse(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{obsFlags: obsflag.Register(fs), mpiFlags: mpiflag.Register(fs)}
	o.spec.Op = engine.OpFlagstat
	var bam string
	fs.StringVar(&o.spec.InputPath, "in", "", "SAM file")
	fs.StringVar(&bam, "bam", "", "region-parallel shard input ("+strings.Join(engine.InputExts(engine.OpFlagstat), ", ")+")")
	fs.IntVar(&o.spec.Ranks, "p", 1, "parallel ranks")
	fs.IntVar(&o.spec.Workers, "workers", 0, "shard workers per rank (0: one per CPU, capped)")
	fs.IntVar(&o.spec.Shards, "shards", 0, "target shard count across the world (0: auto)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if (o.spec.InputPath == "") == (bam == "") {
		return nil, errors.New("exactly one of -in (SAM) or -bam (BAM/BAMX/PAMX) is required")
	}
	if bam != "" {
		o.spec.InputPath = bam
	}
	return o, nil
}

func main() {
	o, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "samstat:", err)
		flag.Usage()
		os.Exit(2)
	}
	sess, err := o.mpiFlags.Start("samstat", o.obsFlags)
	if err != nil {
		die(err)
	}
	defer sess.Close()
	o.spec.Ranks = sess.Ranks(o.spec.Ranks)
	res, err := engine.Run(o.spec, engine.Env{Launch: sess.Launcher(), Rank: sess.Rank()})
	if err != nil {
		die(err)
	}
	// Under a distributed launch the reduced tally is complete on rank 0
	// only; other ranks have nothing to print.
	fmt.Print(res.Summary)
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "samstat:", err)
	os.Exit(1)
}
