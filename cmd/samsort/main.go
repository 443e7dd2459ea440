// Command samsort coordinate-sorts a SAM or BAM file into BAM, the
// precondition for BAI/BAIX indexing and partial conversion.
//
// Usage:
//
//	samsort -in reads.sam -out sorted.bam -p 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"parseq/internal/engine"
	"parseq/internal/obsflag"
)

// options is one invocation: the sort job the flags describe plus the
// telemetry flags.
type options struct {
	spec     engine.Spec
	env      engine.Env
	obsFlags *obsflag.Flags
}

// parse maps the command line onto the engine's job description.
func parse(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{obsFlags: obsflag.Register(fs)}
	o.spec.Op = engine.OpSort
	fs.StringVar(&o.spec.InputPath, "in", "", "input file (.sam or .bam)")
	fs.StringVar(&o.env.OutPath, "out", "", "output BAM (default: input with .sorted.bam)")
	fs.IntVar(&o.spec.Ranks, "p", 1, "parallel chunk-sort workers")
	fs.IntVar(&o.env.ChunkRecords, "chunk", 0, "records per in-memory chunk (default 100000)")
	fs.IntVar(&o.spec.CodecWorkers, "codec-workers", 0, "BGZF codec goroutines per BAM stream (0: auto, one per CPU capped, spills on the shared deflate pool; 1: sequential codec)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	in := o.spec.InputPath
	if in == "" {
		return nil, errors.New("-in is required")
	}
	if o.env.OutPath == "" {
		o.env.OutPath = strings.TrimSuffix(strings.TrimSuffix(in, ".sam"), ".bam") + ".sorted.bam"
	}
	return o, nil
}

func main() {
	o, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "samsort:", err)
		flag.Usage()
		os.Exit(2)
	}
	sess, err := o.obsFlags.Open("samsort")
	if err != nil {
		die(err)
	}
	defer sess.Finish()
	res, err := engine.Run(o.spec, o.env)
	if err != nil {
		die(err)
	}
	fmt.Println(res.Summary)
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "samsort:", err)
	os.Exit(1)
}
