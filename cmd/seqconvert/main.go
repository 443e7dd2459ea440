// Command seqconvert is the parallel sequence data format converter: it
// converts SAM, BAM, preprocessed BAMX/BAMZ or columnar PAMX datasets
// into SAM, BED, BEDGRAPH, FASTA, FASTQ, JSON, YAML or BAM shards with
// one output file per rank.
//
// Usage:
//
//	seqconvert -in data.sam  -format bed -p 8 -out outdir
//	seqconvert -in data.bam  -preprocess              # data.bamx + data.baix
//	seqconvert -in data.bamx -format sam -p 8 -region chr1:1-500000
//	seqconvert -in data.sam  -converter psam -format fastq -p 8
//	seqconvert -in data.bam  -converter pamx -out outdir -prefix data   # columnar PAMX
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

	"parseq/internal/bgzf"
	"parseq/internal/conv"
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
	preproc  bool
	obsFlags *obsflag.Flags
	mpiFlags *mpiflag.Flags
}

// parse maps the command line onto the engine's job description.
func parse(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{obsFlags: obsflag.Register(fs), mpiFlags: mpiflag.Register(fs)}
	o.spec.Op = engine.OpConvert
	fs.StringVar(&o.spec.InputPath, "in", "", "input file ("+strings.Join(engine.InputExts(engine.OpConvert), ", ")+")")
	fs.StringVar(&o.spec.Format, "format", "", "target format: "+strings.Join(formats.Names(), ", ")+", or bam (one shard per rank) (default sam)")
	fs.IntVar(&o.spec.Ranks, "p", 1, "parallel ranks")
	fs.StringVar(&o.env.OutDir, "out", ".", "output directory")
	fs.StringVar(&o.env.OutPrefix, "prefix", "out", "output file prefix")
	fs.StringVar(&o.spec.Region, "region", "", "partial conversion region, e.g. chr1:100-200 (.bamx, .bamz, and .pamx to a text format)")
	fs.StringVar(&o.spec.Converter, "converter", "auto", "converter instance: "+strings.Join(engine.Converters(), ", "))
	fs.BoolVar(&o.preproc, "preprocess", false, "only preprocess the input into BAMX/BAIX")
	fs.IntVar(&o.env.PreRanks, "pre-p", 0, "preprocessing ranks for the psam converter (default: -p)")
	fs.StringVar(&o.env.BAIX, "baix", "", "BAIX index path (default: input with .baix)")
	fs.IntVar(&o.spec.CodecWorkers, "codec-workers", 0, "BGZF codec workers per BAM stream ("+bgzf.WorkersUsage+")")
	fs.IntVar(&o.spec.ParseWorkers, "parse-workers", 0, "per-rank parse/encode goroutines for SAM text input (0: auto; 1: parse on the rank's own goroutine)")
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

	if o.preproc {
		if err := preprocess(o, sess.Distributed()); err != nil {
			die(err)
		}
		return
	}
	res, err := engine.Run(o.spec, o.env)
	if err != nil {
		die(err)
	}
	fmt.Println(res.Summary)
}

// preprocess is -preprocess: only the BAMX/BAIX rewrite, which has no
// job-spec twin.
func preprocess(o *options, distributed bool) error {
	kind, err := o.spec.ConverterKind()
	if err != nil {
		return err
	}
	in := o.spec.InputPath
	var res *conv.PreprocessResult
	switch kind {
	case "bam":
		base := strings.TrimSuffix(in, ".bam")
		res, err = conv.PreprocessBAMFile(in, base+".bamx", base+".baix", o.spec.CodecWorkers)
	case "sam", "psam":
		// Every phase of a distributed run shares the one world, so
		// -pre-p must match it.
		pre := o.env.PreRanks
		if pre == 0 || distributed {
			pre = o.spec.Ranks
		}
		res, err = conv.PreprocessSAMParallel(in, conv.Options{
			OutDir: o.env.OutDir, OutPrefix: o.env.OutPrefix, Cores: pre, Launch: o.env.Launch,
		})
	default:
		err = fmt.Errorf("-preprocess needs a SAM or BAM input")
	}
	if err != nil {
		return err
	}
	fmt.Printf("preprocessed %d records into %s in %v\n",
		res.Records, strings.Join(res.BAMXFiles, ", "), res.Duration)
	return nil
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "seqconvert:", err)
	os.Exit(1)
}
