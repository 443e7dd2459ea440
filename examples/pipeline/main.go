// End-to-end pipeline: every stage of the framework on one dataset.
// Raw unsorted alignments are summarised, coordinate-sorted straight
// into the indexed BAMX form, compressed, partially converted, and
// finally analysed statistically — the full workflow the paper's two
// components enable.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"parseq"
)

func main() {
	dir, err := os.MkdirTemp("", "parseq-pipeline-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	step := stepper{}

	// Raw data: unsorted, as an aligner would emit it.
	cfg := parseq.DefaultDatasetConfig(30000)
	cfg.Sorted = false
	dataset := parseq.GenerateDataset(cfg)
	rawSAM := filepath.Join(dir, "raw.sam")
	f, err := os.Create(rawSAM)
	if err != nil {
		log.Fatal(err)
	}
	if err := dataset.WriteSAM(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	step.done("generated %d unsorted alignments → %s", len(dataset.Records), rawSAM)

	// 1. Parallel dataset summary.
	stats, err := parseq.Flagstat(rawSAM, 4)
	if err != nil {
		log.Fatal(err)
	}
	step.done("flagstat: %d records, %d mapped, %d properly paired",
		stats.Total, stats.Mapped, stats.ProperlyPaired)

	// 2. Coordinate sort (external merge sort, parallel chunk sorting),
	// written as the indexed fixed-stride BAMX its extension names, then
	// compressed.
	bamx := filepath.Join(dir, "sorted.bamx")
	baix := filepath.Join(dir, "sorted.baix")
	n, err := parseq.SortSAMToBAM(rawSAM, bamx, parseq.SortOptions{
		ChunkRecords: 8192, Cores: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	step.done("sorted %d records → %s + %s", n, bamx, baix)

	// 3. Compress the BAMX; the BAIX serves both.
	bamz := filepath.Join(dir, "sorted.bamz")
	if _, err := parseq.CompressBAMX(bamx, bamz, 512); err != nil {
		log.Fatal(err)
	}
	xi, _ := os.Stat(bamx)
	zi, _ := os.Stat(bamz)
	step.done("BAMX %d B, compressed BAMZ %d B (%.0f%%)",
		xi.Size(), zi.Size(), 100*float64(zi.Size())/float64(xi.Size()))

	// 4. Partial conversion of one region from the compressed file.
	region, err := parseq.ParseRegion("chr1:1-80000")
	if err != nil {
		log.Fatal(err)
	}
	res, err := parseq.ConvertBAMZ(bamz, baix, parseq.Options{
		Format: "fastq", Cores: 4, OutDir: dir, OutPrefix: "region",
		Region: &region,
	})
	if err != nil {
		log.Fatal(err)
	}
	step.done("extracted %s: %d reads as FASTQ across %d rank files",
		region.String(), res.Stats.Emitted, len(res.Files))

	// 5. Parallel coverage histogram, NL-means denoising, peak calling.
	cov, err := parseq.CoverageParallel(rawSAM, "chr1", 25, 4)
	if err != nil {
		log.Fatal(err)
	}
	histogram := make([]float64, len(cov.Bins))
	enrich := parseq.GenerateHistogram(len(cov.Bins), 9)
	for i := range histogram {
		histogram[i] = cov.Bins[i]/25 + enrich[i]
	}
	denoised, err := parseq.DenoiseParallel(histogram,
		parseq.NLMeansParams{R: 20, L: 15, Sigma: 10}, 4)
	if err != nil {
		log.Fatal(err)
	}
	sims := parseq.GenerateSimulations(40, len(denoised), 10)
	found, pt, estimate, err := parseq.CallPeaks(denoised, sims,
		[]float64{1, 2, 4, 8}, parseq.PeakOptions{MaxGap: 2, MinWidth: 3})
	if err != nil {
		log.Fatal(err)
	}
	step.done("statistics: %d bins denoised, %d enriched regions at p_t=%g (FDR %.3f)",
		len(denoised), len(found), pt, estimate)
}

type stepper struct{ n int }

func (s *stepper) done(format string, args ...any) {
	s.n++
	fmt.Printf("[%d] ", s.n)
	fmt.Printf(format+"\n", args...)
}
