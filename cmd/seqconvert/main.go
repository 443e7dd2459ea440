// Command seqconvert is the parallel sequence data format converter: it
// converts SAM, BAM or preprocessed BAMX datasets into SAM, BED,
// BEDGRAPH, FASTA, FASTQ, JSON, YAML or BAM shards with one output file
// per rank.
//
// Usage:
//
//	seqconvert -in data.sam  -format bed -p 8 -out outdir
//	seqconvert -in data.bam  -preprocess              # data.bamx + data.baix
//	seqconvert -in data.bamx -format sam -p 8 -region chr1:1-500000
//	seqconvert -in data.sam  -converter psam -format fastq -p 8
//	seqconvert -in data.bam  -converter pamx -out outdir -prefix data   # columnar PAMX
//
// With -transport tcp the same command becomes one rank of a
// multi-process world (run it once per rank with the same work flags):
//
//	seqconvert -transport tcp -world 2 -rank 0 -coord :9900 -in data.sam -p 2
//	seqconvert -transport tcp -world 2 -rank 1 -coord host0:9900 -in data.sam -p 2
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"parseq"
	"parseq/internal/mpiflag"
	"parseq/internal/obsflag"
)

func main() {
	var (
		in        = flag.String("in", "", "input file (.sam, .bam or .bamx)")
		format    = flag.String("format", "sam", "target format: "+strings.Join(parseq.Formats(), ", ")+", or bam (one shard per rank)")
		cores     = flag.Int("p", 1, "parallel ranks")
		outDir    = flag.String("out", ".", "output directory")
		prefix    = flag.String("prefix", "out", "output file prefix")
		region    = flag.String("region", "", "partial conversion region, e.g. chr1:100-200 (BAMX only)")
		converter = flag.String("converter", "auto", "converter instance: auto, sam, bam, psam, pamx")
		preproc   = flag.Bool("preprocess", false, "only preprocess the input into BAMX/BAIX")
		preCores  = flag.Int("pre-p", 0, "preprocessing ranks for the psam converter (default: -p)")
		baix      = flag.String("baix", "", "BAIX index path (default: input with .baix)")
		codecWork = flag.Int("codec-workers", 0, "BGZF codec goroutines per BAM stream (0: auto, one per CPU capped; 1: sequential codec)")
		parseWork = flag.Int("parse-workers", 0, "per-rank parse/encode goroutines for SAM text input (0: auto; 1: sequential line loop)")
		obsFlags  = obsflag.Register(nil)
		mpiFlags  = mpiflag.Register(nil)
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "seqconvert: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	obsSession, err := obsFlags.Start()
	if err != nil {
		die(err)
	}
	defer func() {
		if err := obsSession.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "seqconvert:", err)
		}
	}()
	mpiSession, err := mpiFlags.Connect()
	if err != nil {
		die(err)
	}
	defer mpiSession.Close()
	// Distributed runs ship live metric/span deltas to rank 0, whose
	// -metrics-addr endpoint then serves the whole world's telemetry.
	mpiSession.StartTelemetry(obsSession.View(), obsFlags.Heartbeat)
	if addr := obsSession.ServerAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "seqconvert: serving metrics on http://%s/metrics\n", addr)
	}
	// Under TCP the world size is the rank count; every phase of a
	// distributed run shares the one world, so -pre-p must match too.
	*cores = mpiSession.Ranks(*cores)
	if *preCores == 0 || mpiSession.Distributed() {
		*preCores = *cores
	}

	kind := *converter
	if kind == "auto" {
		switch {
		case strings.HasSuffix(*in, ".sam"):
			kind = "sam"
		case strings.HasSuffix(*in, ".bam"):
			kind = "bam"
		case strings.HasSuffix(*in, ".bamx"):
			kind = "bamx"
		case strings.HasSuffix(*in, ".bamz"):
			kind = "bamz"
		case strings.HasSuffix(*in, ".pamx"):
			kind = "pamx"
		default:
			die(fmt.Errorf("cannot infer converter for %q; pass -converter", *in))
		}
	}

	opts := parseq.Options{
		Format: *format, Cores: *cores, OutDir: *outDir, OutPrefix: *prefix,
		CodecWorkers: *codecWork, ParseWorkers: *parseWork,
		Launch: mpiSession.Launcher(),
	}
	if *region != "" {
		r, err := parseq.ParseRegion(*region)
		if err != nil {
			die(err)
		}
		opts.Region = &r
	}

	if *preproc {
		base := strings.TrimSuffix(*in, ".sam")
		base = strings.TrimSuffix(base, ".bam")
		switch kind {
		case "bam":
			res, err := parseq.PreprocessBAMWorkers(*in, base+".bamx", base+".baix", *codecWork)
			if err != nil {
				die(err)
			}
			fmt.Printf("preprocessed %d records into %s in %v\n",
				res.Records, res.BAMXFiles[0], res.Duration)
		case "sam", "psam":
			res, err := parseq.PreprocessSAMLaunch(*in, *outDir, *prefix, *preCores, mpiSession.Launcher())
			if err != nil {
				die(err)
			}
			fmt.Printf("preprocessed %d records into %d BAMX shards in %v\n",
				res.Records, len(res.BAMXFiles), res.Duration)
		default:
			die(fmt.Errorf("-preprocess needs a SAM or BAM input"))
		}
		return
	}

	// The columnar converter stands apart from the per-rank Result
	// shape: PAMX conversion is one output file either direction.
	if kind == "pamx" {
		popts := parseq.PAMXOptions{CodecWorkers: *codecWork}
		start := time.Now()
		var (
			count int64
			dst   string
		)
		switch {
		case strings.HasSuffix(*in, ".pamx"):
			dst = filepath.Join(*outDir, *prefix+".bam")
			count, err = parseq.ConvertPAMXToBAM(*in, dst, popts)
		case strings.HasSuffix(*in, ".bamx"):
			dst = filepath.Join(*outDir, *prefix+".pamx")
			count, err = parseq.ConvertBAMXToPAMX(*in, dst, popts)
		case strings.HasSuffix(*in, ".bam"):
			dst = filepath.Join(*outDir, *prefix+".pamx")
			count, err = parseq.ConvertBAMToPAMX(*in, dst, popts)
		default:
			err = fmt.Errorf("-converter pamx needs a .bam, .bamx or .pamx input")
		}
		if err != nil {
			die(err)
		}
		fmt.Printf("converted %d records into %s in %v\n", count, dst, time.Since(start))
		return
	}

	var res *parseq.Result
	switch kind {
	case "sam":
		res, err = parseq.ConvertSAM(*in, opts)
	case "bam":
		if *cores > 1 {
			// The complete BAM format converter: sequential preprocessing
			// into a temporary BAMX/BAIX pair, then parallel conversion.
			res, err = parseq.ConvertBAM(*in, opts)
			break
		}
		res, err = parseq.ConvertBAMSequential(*in, opts)
	case "bamx":
		ix := *baix
		if ix == "" {
			ix = strings.TrimSuffix(*in, ".bamx") + ".baix"
		}
		res, err = parseq.ConvertBAMX(*in, ix, opts)
	case "bamz":
		ix := *baix
		if ix == "" {
			ix = strings.TrimSuffix(*in, ".bamz") + ".baix"
		}
		res, err = parseq.ConvertBAMZ(*in, ix, opts)
	case "psam":
		res, err = parseq.ConvertSAMPreprocessed(*in, *preCores, opts)
	default:
		err = fmt.Errorf("unknown converter %q", kind)
	}
	if err != nil {
		die(err)
	}
	fmt.Printf("converted %d records (%d emitted, %d bytes) into %d files in %v\n",
		res.Stats.Records, res.Stats.Emitted, res.Stats.BytesOut,
		len(res.Files), res.Stats.PartitionTime+res.Stats.ConvertTime)
	if res.Stats.PreprocessTime > 0 {
		fmt.Printf("preprocessing took %v (amortisable)\n", res.Stats.PreprocessTime)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "seqconvert:", err)
	os.Exit(1)
}
