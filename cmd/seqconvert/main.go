// Command seqconvert is the parallel sequence data format converter: it
// converts SAM, BAM, preprocessed BAMX/BAMZ or columnar PAMX datasets
// into SAM, BED, BEDGRAPH, FASTA, FASTQ, JSON, YAML or BAM shards with
// one output file per rank, or rewrites them into one BAMX or PAMX
// container.
//
// Usage:
//
//	seqconvert -in data.sam  -format bed -p 8 -out outdir
//	seqconvert -in data.bam  -format bamx -prefix data   # data.bamx + data.baix
//	seqconvert -in data.bamx -format sam -p 8 -region chr1:1-500000
//	seqconvert -in data.sam  -converter psam -format fastq -p 8
//	seqconvert -in data.bam  -format pamx -out outdir -prefix data   # columnar PAMX
//	seqconvert -in data.pamx -format bed -p 8 -region chr1:1-500000
//
// With -transport tcp the same command becomes one rank of a
// multi-process world (run it once per rank with the same work flags):
//
//	seqconvert -transport tcp -world 2 -rank 0 -coord :9900 -in data.sam -p 2
//	seqconvert -transport tcp -world 2 -rank 1 -coord host0:9900 -in data.sam -p 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"parseq/internal/engine"
	"parseq/internal/formats"
	"parseq/internal/mpiflag"
	"parseq/internal/obsflag"
)

// options is one invocation: the conversion job the flags describe plus
// the session flags.
type options struct {
	spec     engine.Spec
	env      engine.Env
	obsFlags *obsflag.Flags
	mpiFlags *mpiflag.Flags
}

// parse maps the command line onto the engine's job description.
func parse(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{obsFlags: obsflag.Register(fs), mpiFlags: mpiflag.Register(fs)}
	o.spec.Op = engine.OpConvert
	fs.StringVar(&o.spec.InputPath, "in", "", "input file ("+strings.Join(engine.InputExts(engine.OpConvert), ", ")+")")
	fs.StringVar(&o.spec.Format, "format", "", "target format: "+strings.Join(formats.Names(), ", ")+", or bam (one shard per rank); bamx or pamx (one container) (default sam)")
	fs.IntVar(&o.spec.Ranks, "p", 1, "parallel ranks")
	fs.StringVar(&o.env.OutDir, "out", ".", "output directory")
	fs.StringVar(&o.env.OutPrefix, "prefix", "out", "output file prefix")
	fs.StringVar(&o.spec.Region, "region", "", "partial conversion region, e.g. chr1:100-200 (.bam, .bamx, .bamz, .pamx, or SAM under -converter psam)")
	fs.StringVar(&o.spec.Converter, "converter", "auto", "converter instance: "+strings.Join(engine.Converters(), ", "))
	fs.StringVar(&o.env.BAIX, "baix", "", "index path: the .bai of a .bam input, the .baix of a .bamx/.bamz (default: input plus .bai, or with .baix)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.spec.InputPath == "" {
		return nil, errors.New("-in is required")
	}
	return o, nil
}

func main() {
	o, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "seqconvert:", err)
		flag.Usage()
		os.Exit(2)
	}
	sess, err := o.mpiFlags.Start("seqconvert", o.obsFlags)
	if err != nil {
		die(err)
	}
	defer sess.Close()
	// Under TCP the world size is the rank count.
	o.spec.Ranks = sess.Ranks(o.spec.Ranks)
	o.env.Launch, o.env.Rank = sess.Launcher(), sess.Rank()
	res, err := engine.Run(o.spec, o.env)
	if err != nil {
		die(err)
	}
	// Under a distributed launch rank 0 holds the world's result; other
	// ranks have nothing to report.
	if res.Summary != "" {
		fmt.Println(res.Summary)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "seqconvert:", err)
	os.Exit(1)
}
