// Command ngsgen generates deterministic synthetic NGS datasets: SAM/BAM
// alignment files shaped like the paper's mouse WGS data, plus coverage
// histograms and FDR simulation datasets.
//
// Usage:
//
//	ngsgen -reads 100000 -out data/mouse            # data/mouse.sam + .bam
//	ngsgen -hist 640000 -sims 80 -out data/chip     # histogram + simulations
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"parseq/internal/hist"
	"parseq/internal/simdata"
)

func main() {
	var (
		reads   = flag.Int("reads", 0, "alignment records to generate")
		readLen = flag.Int("readlen", 90, "bases per read")
		seed    = flag.Int64("seed", 1, "generator seed")
		sorted  = flag.Bool("sorted", true, "emit records in coordinate order")
		out     = flag.String("out", "dataset", "output path prefix")
		format  = flag.String("format", "both", "alignment output: sam, bam or both")
		bins    = flag.Int("hist", 0, "generate a coverage histogram with this many bins")
		sims    = flag.Int("sims", 0, "generate this many FDR simulation datasets (requires -hist)")
	)
	flag.Parse()

	if *reads <= 0 && *bins <= 0 {
		fmt.Fprintln(os.Stderr, "ngsgen: nothing to do; pass -reads and/or -hist")
		flag.Usage()
		os.Exit(2)
	}

	if *reads > 0 {
		cfg := simdata.DefaultConfig(*reads)
		cfg.Seed = *seed
		cfg.ReadLen = *readLen
		cfg.Sorted = *sorted
		d := simdata.Generate(cfg)
		if *format == "sam" || *format == "both" {
			writeOrDie(*out+".sam", d.WriteSAM)
			fmt.Printf("wrote %s.sam (%d records)\n", *out, len(d.Records))
		}
		if *format == "bam" || *format == "both" {
			writeOrDie(*out+".bam", d.WriteBAM)
			fmt.Printf("wrote %s.bam (%d records)\n", *out, len(d.Records))
		}
		if *format != "sam" && *format != "bam" && *format != "both" {
			die(fmt.Errorf("unknown -format %q (want sam, bam or both)", *format))
		}
	}

	if *bins > 0 {
		h := simdata.Histogram(*bins, *seed)
		writeOrDie(*out+".hist.tsv", func(f io.Writer) error {
			return hist.WriteTSV(f, h)
		})
		fmt.Printf("wrote %s.hist.tsv (%d bins)\n", *out, *bins)
		for s := 0; s < *sims; s++ {
			sim := simdata.Simulations(1, *bins, *seed+int64(s)+1)[0]
			path := fmt.Sprintf("%s.sim%03d.tsv", *out, s)
			writeOrDie(path, func(f io.Writer) error {
				return hist.WriteTSV(f, sim)
			})
		}
		if *sims > 0 {
			fmt.Printf("wrote %d simulation datasets (%s.sim*.tsv)\n", *sims, *out)
		}
	} else if *sims > 0 {
		die(fmt.Errorf("-sims requires -hist"))
	}
}

func writeOrDie(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		die(err)
	}
	if err := write(f); err != nil {
		f.Close()
		die(err)
	}
	if err := f.Close(); err != nil {
		die(err)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "ngsgen:", err)
	os.Exit(1)
}
