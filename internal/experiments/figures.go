package experiments

import (
	"fmt"
	"io"
	"os"
	"time"

	"parseq/internal/cluster"
	"parseq/internal/conv"
	"parseq/internal/mpi"
	"parseq/internal/nlmeans"
	"parseq/internal/partition"
	"parseq/internal/picard"
)

// figure is one row of the reproduction table: what the report is called
// and how its rows are filled from the shared fixture.
type figure struct {
	id, title string
	columns   []string
	fill      func(fx *fixture, r *Report) error
}

// figures is every table and figure of the paper's evaluation, in paper
// order. Measured cells come from the product's own phase statistics
// (fixture.journey) or, for kernels that keep none, from bestOf(wall);
// modelled cells are cluster.Machine.Time over byte counts, record
// counts and the paper's sequential anchors.
var figures = []figure{
	{"table1", "Sequential comparison against Picard (measured, scaled dataset)",
		[]string{"Conversion", "System", "Measured", "Paper(s)", "vs baseline"}, table1},
	{"fig6", "Conversion speedup of SAM format converter (measured 1-core profile, modelled at paper scale)",
		[]string{"Cores", "BED", "BEDGRAPH", "FASTA"}, fig6},
	{"fig7", "Full conversion speedup of BAM format converter (measured 1-core profile, modelled at paper scale)",
		[]string{"Cores", "BED", "BEDGRAPH", "FASTA"}, fig7},
	{"fig8", "Partial conversion times of BAM format converter (modelled, normalised to the 100% subset per core count)",
		[]string{"Cores", "20%", "40%", "60%", "80%", "100%"}, fig8},
	{"fig9", "Preprocessing-optimized vs original SAM format converter (modelled speedups; _P = with preprocessing)",
		[]string{"Cores", "BED", "BEDGRAPH", "FASTA", "BED_P", "BEDGRAPH_P", "FASTA_P"}, fig9},
	{"fig10", "Preprocessing speedup of preprocessing-optimized SAM format converter (modelled)",
		[]string{"Cores", "Speedup"}, fig10},
	{"fig11", "Speedup of NL-means processing (modelled from the paper's sequential anchors; kernel costs verified by measurement)",
		[]string{"Cores", "r=20", "r=80", "r=320"}, fig11},
	{"fig12", "Speedup of FDR computation (modelled from the paper's 1164 s sequential anchor)",
		[]string{"Cores", "Fused (Alg. 2)", "Two-pass", "Paper"}, fig12},
	{"ablations", "Design-choice ablations (measured on the scaled dataset; best of 3)",
		[]string{"Ablation", "Variant A", "Variant B", "A", "B"}, ablations},
}

// The speedup figures sweep these target formats over these core counts.
var (
	figFormats = []string{"bed", "bedgraph", "fasta"}
	figCores   = []int{1, 2, 4, 8, 16, 32, 64, 128}
)

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

// bamxIOBonus is the effective-bandwidth factor regular fixed-stride
// BAMX streaming gains over ragged text, per the paper's MPI-IO
// observation. Applied to every BAMX-based workload. It is the model's
// one fitted parameter (set so Figure 9's BED improvement matches the
// paper) and has not been validated against a P ≥ 2 measurement here.
const bamxIOBonus = 1.3

// paperWorkload builds a paper-scale workload: byte counts at the
// paper's dataset size, compute anchored to a paper-reported sequential
// time and scaled by relCPU, the relative compute cost of this variant.
func (fx *fixture) paperWorkload(anchorSeconds, relCPU float64, read, write int64, barriers int) cluster.Workload {
	w := cluster.Workload{ReadBytes: read, WriteBytes: write, Barriers: barriers}
	w = fx.sc.Machine.CalibrateCPU(w, anchorSeconds)
	w.CPUSeconds *= relCPU
	return w
}

// formatCurves measures one 1-core conversion per figure format through
// convert and models each at paper scale. Compute is anchored and held
// equal across target formats: per-record cost is dominated by parsing
// the input, which every format shares. The formats differ in their
// measured output volume — the I/O term the paper's discussion turns on.
func (fx *fixture) formatCurves(convert func(format string) (journey, error),
	anchor float64, read int64, scaleUp, ioBonus float64) (ws []cluster.Workload, note string, err error) {

	note = "measured 1-core runs:"
	for _, format := range figFormats {
		j, err := convert(format)
		if err != nil {
			return nil, "", err
		}
		note += fmt.Sprintf(" %s %s/%dB", format, fseconds(j.secs), j.BytesOut)
		w := fx.paperWorkload(anchor, 1, read, int64(float64(j.BytesOut)*scaleUp), 0)
		w.IOBonus = ioBonus
		ws = append(ws, w)
	}
	return ws, note, nil
}

// addSpeedupRows fills one speedup row per core count, one column per
// workload.
func (fx *fixture) addSpeedupRows(r *Report, workloads ...cluster.Workload) error {
	for _, cores := range figCores {
		row := []string{fmt.Sprintf("%d", cores)}
		for _, w := range workloads {
			s, err := fx.sc.Machine.Speedup(w, cores)
			if err != nil {
				return err
			}
			row = append(row, fspeedup(s))
		}
		r.AddRow(row...)
	}
	return nil
}

// times models each workload's wall-clock seconds on `cores` cores.
func (fx *fixture) times(cores int, workloads ...cluster.Workload) ([]float64, error) {
	out := make([]float64, len(workloads))
	for i, w := range workloads {
		var err error
		if out[i], err = fx.sc.Machine.Time(w, cores); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// table1 reproduces the sequential comparison against Picard: SAM→FASTQ
// and BAM→SAM with our converters (with and without preprocessing)
// against the conventional record-object baseline. All runs are real
// sequential executions on the scaled chr1 dataset (paper: 37.54 GB SAM /
// 7.72 GB BAM restricted to chr1). The measured runs pin ParseWorkers
// and CodecWorkers to 1: Table I anchors the paper's sequential
// converter, so the SAM line engine runs inline on the one rank's
// goroutine and neither a parse goroutine nor the parallel codec may
// leak into it.
func table1(fx *fixture, r *Report) error {
	d := &fx.chr1
	if err := d.preprocessSAM(); err != nil {
		return err
	}
	// Both "with preprocessing" rows read the one chr1 BAMX/BAIX pair:
	// the SAM and BAM preprocessors write identical bytes.
	bamxPath, baixPath := d.shards.BAMXFiles[0], d.shards.BAIXFiles[0]
	// The first error sticks; later cells are then not worth reading.
	var err error
	stick := func(e error) {
		if err == nil {
			err = e
		}
	}
	ours := func(key, format string, run func(conv.Options) (*conv.Result, error)) float64 {
		j, e := fx.journey(key, func(o conv.Options) (*conv.Result, error) {
			o.Format, o.ParseWorkers, o.CodecWorkers = format, 1, 1
			return run(o)
		})
		stick(e)
		return j.secs
	}
	baseline := func(convert func(in, out string) (picard.Stats, error), in, out string) float64 {
		d, e := bestOf(reps, func() (time.Duration, error) {
			st, err := convert(in, fx.path(out))
			return st.Duration, err
		})
		stick(e)
		return d.Seconds()
	}
	addTable1Rows(r, "SAM→FASTQ", [3]float64{3214, 2804, 3121}, [3]float64{
		ours("t1_sam_nopre", "fastq", func(o conv.Options) (*conv.Result, error) { return conv.ConvertSAM(d.sam, o) }),
		ours("t1_sam_pre", "fastq", func(o conv.Options) (*conv.Result, error) {
			return conv.ConvertPreprocessed(d.shards.BAMXFiles, d.shards.BAIXFiles, o)
		}),
		baseline(picard.SamToFastq, d.sam, "t1_picard.fastq"),
	})
	addTable1Rows(r, "BAM→SAM", [3]float64{2043, 1548, 1425}, [3]float64{
		ours("t1_bam_nopre", "sam", func(o conv.Options) (*conv.Result, error) { return convertBAMAdapted(d.bam, o) }),
		ours("t1_bam_pre", "sam", func(o conv.Options) (*conv.Result, error) { return conv.ConvertBAMX(bamxPath, baixPath, o) }),
		baseline(picard.BamToSam, d.bam, "t1_picard.sam"),
	})
	if err != nil {
		return err
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("dataset: %d chr1 reads (SAM %d bytes, BAM %d bytes); paper: 37.54 GB SAM / 7.72 GB BAM",
			fx.sc.Reads, fileSize(d.sam), fileSize(d.bam)),
		"'with preprocessing' times exclude the preprocessing pass, as in the paper (amortised across conversions)")
	return nil
}

// addTable1Rows adds one conversion's three systems — ours without and
// with preprocessing, then the baseline the last column is relative to.
func addTable1Rows(r *Report, conversion string, paper, secs [3]float64) {
	for i, system := range []string{"ours, no preprocessing", "ours, with preprocessing", "baseline (Picard-style)"} {
		r.AddRow(conversion, system, fseconds(secs[i]), fmt.Sprintf("%.0f", paper[i]),
			fmt.Sprintf("%+.0f%%", 100*(secs[i]-secs[2])/secs[2]))
	}
}

// fig6 reproduces the SAM format converter speedup figure: conversion of
// a SAM dataset into BED, BEDGRAPH and FASTA at 1-128 cores (paper
// dataset: 100 GB).
func fig6(fx *fixture, r *Report) error {
	const paperSAMBytes = 100 * gb
	if err := fx.full.files(); err != nil {
		return err
	}
	samSize := fileSize(fx.full.sam)
	ws, measured, err := fx.formatCurves(fx.samTo, paperSAMFastqRate*100,
		int64(paperSAMBytes), paperSAMBytes/float64(samSize), 0)
	if err != nil {
		return err
	}
	m := fx.sc.Machine
	r.Notes = append(r.Notes,
		fmt.Sprintf("measured dataset: %d reads, %d SAM bytes; modelled at the paper's 100 GB on %d-core nodes with %.0f MB/s shared disk",
			fx.sc.Reads, samSize, m.CoresPerNode, m.DiskMBps),
		"paper's finding to reproduce: all three scale well; BEDGRAPH scales best (least output text → least I/O-bound)",
		measured)
	return fx.addSpeedupRows(r, ws...)
}

// fig7 reproduces the full-conversion speedup of the BAM format
// converter: BAMX-based conversion into BED, BEDGRAPH and FASTA at 1-128
// cores (paper dataset: 117 GB sorted BAM).
func fig7(fx *fixture, r *Report) error {
	const paperBAMBytes = 117 * gb
	if err := fx.full.pair(); err != nil {
		return err
	}
	bamxSize := fileSize(fx.full.bamx)
	ws, measured, err := fx.formatCurves(func(format string) (journey, error) { return fx.bamxTo(format, nil) },
		paperBAMXRate*117, int64(paperBAMBytes), paperBAMBytes/float64(bamxSize), bamxIOBonus)
	if err != nil {
		return err
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("measured BAMX input: %d bytes; modelled at the paper's 117 GB; preprocessing excluded (amortised)", bamxSize),
		"paper's finding to reproduce: good scaling from (1) regular padded layout aiding I/O and (2) fully independent per-rank conversion",
		measured)
	return fx.addSpeedupRows(r, ws...)
}

// fig8 reproduces the partial-conversion experiment: converting 20-100%
// chromosome-region subsets of the BAM dataset into SAM at 8-128 cores.
// The check is the paper's: conversion time stays proportional to the
// subset size at every core count, because the BAIX binary search makes
// region lookup free.
func fig8(fx *fixture, r *Report) error {
	const paperBAMBytes = 117 * gb
	fractions := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	runs := make([]journey, len(fractions))
	for i, frac := range fractions {
		var err error
		if runs[i], err = fx.bamxTo("sam", regionForFraction(frac)); err != nil {
			return err
		}
	}
	bamxSize := fileSize(fx.full.bamx)
	scaleUp := paperBAMBytes / float64(bamxSize)
	full := runs[len(runs)-1]
	// Anchor: the 100% chr1 subset at the paper's scale and rate.
	anchor := paperBAMXRate * 117 * (float64(full.BytesIn) / float64(bamxSize))
	workloads := make([]cluster.Workload, len(runs))
	recordCounts := make([]int64, len(runs))
	for i, run := range runs {
		workloads[i] = fx.paperWorkload(anchor, float64(run.Records)/float64(full.Records),
			int64(float64(run.BytesIn)*scaleUp), int64(float64(run.BytesOut)*scaleUp), 0)
		workloads[i].IOBonus = bamxIOBonus
		recordCounts[i] = run.Records
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("records selected per subset: %v", recordCounts),
		"paper's finding to reproduce: times ≈ proportional to the region fraction; BAIX binary-search overhead is trivial")
	for _, cores := range []int{8, 16, 32, 64, 128} {
		ts, err := fx.times(cores, workloads...)
		if err != nil {
			return err
		}
		row := []string{fmt.Sprintf("%d", cores)}
		for _, t := range ts {
			row = append(row, fmt.Sprintf("%.2f", t/ts[len(ts)-1]))
		}
		r.AddRow(row...)
	}
	return nil
}

// regionForFraction maps a subset fraction to a chromosome-region query:
// the generator places reads uniformly, so the first frac of chr1's
// positions holds ≈ frac of chr1's reads. All fractions query chr1 and
// fig8 normalises against the 100% chr1 subset, mirroring the paper's
// region-subset construction.
func regionForFraction(frac float64) *conv.Region {
	const chr1Len = 197195 // MouseChromosomes(1000) chr1 length
	end := int32(float64(chr1Len) * frac)
	if end < 1 {
		end = 1
	}
	return &conv.Region{RName: "chr1", Beg: 1, End: end}
}

// shardBytes is the total size of a preprocessing phase's BAMX files.
func shardBytes(pre *conv.PreprocessResult) (n int64) {
	for _, f := range pre.BAMXFiles {
		n += fileSize(f)
	}
	return n
}

// fig9 reproduces the comparison of the preprocessing-optimized SAM
// format converter against the original SAM format converter: conversion
// speedups into BED, BEDGRAPH and FASTA for both (paper dataset: 15.7 GB
// SAM; preprocessing cost excluded, as in the paper's "_P" bars). The
// original is anchored to Table I's plain-SAM rate, the optimized one to
// its preprocessed rate with the binary BAMX shards as input.
func fig9(fx *fixture, r *Report) error {
	paperSAMBytes := 15.7 * gb
	if err := fx.full.preprocessSAM(); err != nil {
		return err
	}
	samSize, bamxSize := fileSize(fx.full.sam), shardBytes(fx.full.shards)
	scaleUp := paperSAMBytes / float64(samSize)
	orig, _, err := fx.formatCurves(fx.samTo, paperSAMFastqRate*15.7, int64(paperSAMBytes), scaleUp, 0)
	if err != nil {
		return err
	}
	opt, _, err := fx.formatCurves(fx.shardsTo, paperPreSAMFastqRate*15.7,
		int64(float64(bamxSize)*scaleUp), scaleUp, bamxIOBonus)
	if err != nil {
		return err
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("measured SAM input: %d bytes, BAMX shards: %d bytes; modelled at the paper's 15.7 GB", samSize, bamxSize),
		"paper's 128-core times: BED 16.64s→11.51s (+30.8%), BEDGRAPH 15.10s→11.48s (+24.0%), FASTA 18.54s→12.80s (+31.0%)")
	// Modelled 128-core times and improvement factors, against the
	// paper's reported values.
	paperImp := []string{"30.8%", "24.0%", "31.0%"}
	for i, format := range figFormats {
		t, err := fx.times(128, orig[i], opt[i])
		if err != nil {
			return err
		}
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%s: modelled 128-core times %s → %s, improvement %.1f%% (paper: %s)",
			format, fseconds(t[0]), fseconds(t[1]), 100*(t[0]-t[1])/t[1], paperImp[i]))
	}
	return fx.addSpeedupRows(r, append(orig, opt...)...)
}

// fig10 reproduces the preprocessing speedup of the
// preprocessing-optimized SAM format converter: the SAM→BAMX
// preprocessing phase at 1-128 cores (paper: 15.7 GB SAM, 2187 s
// sequential — the anchor the model uses directly).
func fig10(fx *fixture, r *Report) error {
	paperSAMBytes := 15.7 * gb
	if err := fx.full.preprocessSAM(); err != nil {
		return err
	}
	samSize, pre := fileSize(fx.full.sam), fx.full.shards
	scaleUp := paperSAMBytes / float64(samSize)
	w := fx.paperWorkload(2187, 1, int64(paperSAMBytes), int64(float64(shardBytes(pre))*scaleUp), 0)
	r.Notes = append(r.Notes,
		fmt.Sprintf("measured sequential preprocessing: %s for %d bytes; modelled at the paper's 2187 s for 15.7 GB",
			fseconds(pre.Duration.Seconds()), samSize),
		"paper's finding to reproduce: scalability within a node bridled by I/O; scales well across nodes via Algorithm 1")
	return fx.addSpeedupRows(r, w)
}

// fig11 reproduces the NL-means scaling figure: denoising a binned
// histogram with search radius r ∈ {20, 80, 320}, l = 15, σ = 10 (paper:
// 16M bp of histogram data in 25 bp bins, i.e. 640k bins; sequential
// times 10213 s, 41010 s and 163231 s). The real kernel is measured at
// each r on the scaled histogram to verify its Θ(N(2r+1)(2l+1)) cost
// profile, and the cluster model runs from the paper's sequential anchors.
func fig11(fx *fixture, r *Report) error {
	const paperBins = 640_000 // 16M bp at 25 bp per bin
	radii := []int{20, 80, 320}
	paperSeq := []float64{10213, 41010, 163231}
	bins := fx.sc.Bins
	r.Notes = append(r.Notes,
		fmt.Sprintf("measured histogram: %d bins (paper: 640k bins), l=15, σ=10", bins),
		"paper's finding to reproduce: near-linear scaling, improving as r grows (compute dominates the halo-replication overhead)")
	ws := make([]cluster.Workload, len(radii))
	measured := make([]float64, len(radii))
	for i, radius := range radii {
		d, err := bestOf(1, wall(func() error {
			_, err := nlmeans.Denoise(fx.histogram(), nlmeans.Params{R: radius, L: 15, Sigma: 10})
			return err
		}))
		if err != nil {
			return err
		}
		measured[i] = d.Seconds()
		ws[i] = fx.paperWorkload(paperSeq[i], 1, 8*paperBins, 8*paperBins, 1)
		r.Notes = append(r.Notes, fmt.Sprintf("r=%d: measured sequential kernel %s at %d bins (paper anchor: %.0f s at 640k bins)",
			radius, fseconds(measured[i]), bins, paperSeq[i]))
	}
	// Sanity note: the measured kernel cost must grow ≈ linearly with r,
	// the profile the paper's sequential times exhibit.
	r.Notes = append(r.Notes, fmt.Sprintf(
		"measured cost ratios r=80/r=20: %.1f (paper: %.1f), r=320/r=20: %.1f (paper: %.1f)",
		measured[1]/measured[0], paperSeq[1]/paperSeq[0],
		measured[2]/measured[0], paperSeq[2]/paperSeq[0]))
	return fx.addSpeedupRows(r, ws...)
}

// fig12 reproduces the FDR computation scaling figure: 1 histogram + B
// simulation datasets (paper: B=80, 16M bins each, 1164 s sequential).
// Algorithm 2's fused reduction is measured on the scaled data for
// correctness and cost, and modelled at the paper's anchor up to 256
// cores; the two-pass formulation is modelled alongside to show the
// fusion's saved synchronisation.
func fig12(fx *fixture, r *Report) error {
	// The measured kernel ratio is the fusion's real compute saving; the
	// extra barrier is the synchronisation saving.
	fusedTime, twoPassTime, err := fx.fdrKernels()
	if err != nil {
		return err
	}
	rel := twoPassTime.Seconds() / fusedTime.Seconds()
	if rel < 1 {
		rel = 1 // the fused kernel never loses; clamp measurement noise
	}
	// The FDR inputs live in memory after distribution (the paper's 16M
	// bins × 81 datasets fit the cluster's aggregate RAM), so the model
	// carries no disk term — matching the paper's near-linear curve.
	fused := fx.paperWorkload(1164, 1, 0, 0, 1)
	twoPass := fx.paperWorkload(1164, rel, 0, 0, 2)
	r.Notes = append(r.Notes,
		fmt.Sprintf("measured sequential fused FDR: %s for %d bins × %d simulations (paper: 1164 s avg for 16M bins × 80 sims)",
			fseconds(fusedTime.Seconds()), fx.sc.Bins, fx.sc.Sims),
		fmt.Sprintf("measured fusion saving: two-pass kernel costs %.2fx the fused kernel", rel),
		"paper's finding to reproduce: near-linear speedup; the summation permutation gains extra speedup over two separate reductions",
		"the paper's slight superlinearity at 256 cores (263.94x) is a cache effect the analytic model does not carry")
	// Both parallel variants are compared against the one sequential
	// baseline, as the paper's Figure 12 does ("compared with the
	// sequential version that averagely consumes 1164 s").
	seq, err := fx.times(1, fused)
	if err != nil {
		return err
	}
	paper := []float64{8.30, 16.60, 33.15, 66.16, 132.14, 263.94}
	for i, cores := range []int{8, 16, 32, 64, 128, 256} {
		t, err := fx.times(cores, fused, twoPass)
		if err != nil {
			return err
		}
		r.AddRow(fmt.Sprintf("%d", cores), fspeedup(seq[0]/t[0]), fspeedup(seq[0]/t[1]), fmt.Sprintf("%.2fx", paper[i]))
	}
	return nil
}

// ablations measures the design choices DESIGN.md calls out, head to
// head, on the scaled dataset: Algorithm 1's two boundary-adjustment
// directions, BAIX-indexed partial conversion vs a full scan, the fused
// vs two-pass FDR kernels, NL-means halo replication vs shared memory,
// and plain vs compressed BAMX conversion.
func ablations(fx *fixture, r *Report) error {
	row := func(name, a, b string, ta, tb float64) {
		r.AddRow(name, a, b, fseconds(ta), fseconds(tb))
	}

	// 1. Partition boundary adjustment direction.
	if err := fx.full.files(); err != nil {
		return err
	}
	f, err := os.Open(fx.full.sam)
	if err != nil {
		return err
	}
	defer f.Close()
	size := fileSize(fx.full.sam)
	split := func(algorithm1 func(io.ReaderAt, int64, int64, int) ([]partition.ByteRange, error)) (time.Duration, error) {
		return bestOf(reps, wall(func() error {
			_, err := algorithm1(f, 0, size, 64)
			return err
		}))
	}
	fwd, err := split(partition.SAMForward)
	if err != nil {
		return err
	}
	bwd, err := split(partition.SAMBackward)
	if err != nil {
		return err
	}
	row("Algorithm 1 direction (64 parts)", "forward", "backward", fwd.Seconds(), bwd.Seconds())

	// 2. Partial conversion: BAIX index vs full scan with filter.
	indexed, err := fx.bamxTo("bed", &conv.Region{RName: "chr1", Beg: 1, End: 40000})
	if err != nil {
		return err
	}
	plain, err := fx.bamxTo("bed", nil)
	if err != nil {
		return err
	}
	row("Region query (chr1:1-40000)", "BAIX binary search", "full scan", indexed.secs, plain.secs)

	// 3. FDR kernel fusion.
	fused, twoPass, err := fx.fdrKernels()
	if err != nil {
		return err
	}
	row("FDR reduction", "fused (Alg. 2)", "two-pass", fused.Seconds(), twoPass.Seconds())

	// 4. NL-means halo replication vs shared-memory workers.
	p := nlmeans.Params{R: 20, L: 15, Sigma: 10}
	v := fx.histogram()
	if len(v) > 8000 {
		v = v[:8000]
	}
	halo, err := bestOf(reps, wall(func() error {
		return mpi.Run(4, func(c *mpi.Comm) error {
			_, err := nlmeans.DenoiseDistributed(c, v, p)
			return err
		})
	}))
	if err != nil {
		return err
	}
	shared, err := bestOf(reps, wall(func() error {
		_, err := nlmeans.DenoiseParallel(v, p, 4)
		return err
	}))
	if err != nil {
		return err
	}
	row("NL-means boundaries (4 ranks)", "replicated halo", "shared memory", halo.Seconds(), shared.Seconds())

	// 5. Plain vs compressed BAMX conversion.
	bamzPath := fx.path("full.bamz")
	if _, err := conv.CompressBAMXFile(fx.full.bamx, bamzPath, 512); err != nil {
		return err
	}
	compressed, err := fx.journey("bamz_bed", func(o conv.Options) (*conv.Result, error) {
		// CodecWorkers pinned to 1: this ablation isolates the inherent
		// decompression cost of BAMZ, so block readahead stays off.
		o.Format, o.CodecWorkers = "bed", 1
		return conv.ConvertBAMZ(bamzPath, fx.full.baix, o)
	})
	if err != nil {
		return err
	}
	row("BAMX storage (full→BED)", "plain", "compressed (BAMZ)", plain.secs, compressed.secs)
	xi, zi := fileSize(fx.full.bamx), fileSize(bamzPath)
	r.Notes = append(r.Notes,
		fmt.Sprintf("BAMZ is %d of %d bytes (%.0f%% of plain BAMX)", zi, xi, 100*float64(zi)/float64(xi)))
	return nil
}
