package main

// The benchmark's vocabulary: workloads, end-to-end metrics and the
// matrix saying which workload produces which journey, then the
// per-layer metrics of the traced run. BENCHMARK.json repeats the names
// with directions and bounds; bench_test.go holds the two in step.

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

const (
	wFromSAM   = "from_sam"
	wFromBAM   = "from_bam"
	wFromBAMX  = "from_bamx"
	wFromPAMX  = "from_pamx"
	wHistogram = "histogram"
	wDaemon    = "daemon_jobs"
)

// workloadNames is the run order of -all.
var workloadNames = []string{wFromSAM, wFromBAM, wFromBAMX, wFromPAMX, wHistogram, wDaemon}

const (
	mSetup    = "setup_s"
	mToText   = "to_text_s"
	mToBAM    = "to_bam_s"
	mToBAMX   = "to_bamx_s"
	mToPAMX   = "to_pamx_s"
	mPartial  = "partial_s"
	mFlagstat = "flagstat_s"
	mHist     = "hist_s"
	mDenoise  = "denoise_s"
	mFDR      = "fdr_s"
	mJobsPerS = "jobs_per_s"
	mJobP95   = "job_p95_ms"
	mOutIn    = "out_in_ratio"
	mPeakRSS  = "peak_rss_mb"
)

// endToEnd lists the journeys a user sees. failed_share is carried by
// the result line's failed/attempted pair, not by a metric: it is zero
// on a healthy commit and a bound relative to zero gates nothing.
var endToEnd = []metricDef{
	{mSetup, "s", "lower"},
	{mToText, "s", "lower"},
	{mToBAM, "s", "lower"},
	{mToBAMX, "s", "lower"},
	{mToPAMX, "s", "lower"},
	{mPartial, "s", "lower"},
	{mFlagstat, "s", "lower"},
	{mHist, "s", "lower"},
	{mDenoise, "s", "lower"},
	{mFDR, "s", "lower"},
	{mJobsPerS, "1/s", "higher"},
	{mJobP95, "ms", "lower"},
	{mOutIn, "ratio", "lower"},
	{mPeakRSS, "MB", "lower"},
}

// matrix is container × journey: the cells a workload measures. Every
// other cell of the rectangle is filled from the workload's pass time
// (see fillRow) because the driver wants every metric on every workload.
var matrix = map[string][]string{
	wFromSAM:   {mSetup, mToText, mToBAM, mToBAMX, mFlagstat, mHist, mOutIn, mPeakRSS},
	wFromBAM:   {mSetup, mToText, mToBAMX, mToPAMX, mFlagstat, mHist, mOutIn, mPeakRSS},
	wFromBAMX:  {mSetup, mToText, mToPAMX, mPartial, mFlagstat, mHist, mOutIn, mPeakRSS},
	wFromPAMX:  {mSetup, mToBAM, mFlagstat, mHist, mOutIn, mPeakRSS},
	wHistogram: {mSetup, mDenoise, mFDR, mOutIn, mPeakRSS},
	wDaemon:    {mSetup, mJobsPerS, mJobP95, mOutIn, mPeakRSS},
}

func inMatrix(workload, metric string) bool {
	for _, m := range matrix[workload] {
		if m == metric {
			return true
		}
	}
	return false
}

// cpuJourneys are the journeys whose CPU time the traced run reports as
// cpu.<journey>.
var cpuJourneys = []string{mToText, mToBAM, mToBAMX, mToPAMX, mPartial, mFlagstat, mHist, mDenoise, mFDR}

func cpuMetric(journey string) string {
	return "cpu." + journey[:len(journey)-len("_s")]
}

// perLayer lists what the traced run reports, layer by layer.
var perLayer = []metricDef{
	{"simdata.generate_s", "s", "lower"},
	{"setup.derive_s", "s", "lower"},

	{"partition.split_us", "us", "lower"},

	{"sam.parse_ns_per_rec", "ns", "lower"},
	{"sam.format_ns_per_rec", "ns", "lower"},

	{"kern.scan_mb_s", "MB/s", "higher"},
	{"kern.unpack_mb_s", "MB/s", "higher"},
	{"kern.pack_mb_s", "MB/s", "higher"},
	{"kern.qualshift_mb_s", "MB/s", "higher"},
	{"kern.revcomp_mb_s", "MB/s", "higher"},
	{"kern.parseuint_ns", "ns", "lower"},

	{"bgzf.inflate_mb_s", "MB/s", "higher"},
	{"bgzf.inflate_par_mb_s", "MB/s", "higher"},
	{"bgzf.deflate_mb_s", "MB/s", "higher"},
	{"bgzf.deflate_par_mb_s", "MB/s", "higher"},
	{"bgzf.deflate_ratio", "ratio", "lower"},
	{"bgzf.blocks", "count", "lower"},

	{"bam.scan_bodies_mb_s", "MB/s", "higher"},
	{"bam.decode_ns_per_rec", "ns", "lower"},
	{"bam.encode_ns_per_rec", "ns", "lower"},
	{"bam.build_index_s", "s", "lower"},
	{"bam.region_read_s", "s", "lower"},
	{"bam.parallel_scan_s", "s", "lower"},

	{"bamx.read_raw_ns_per_rec", "ns", "lower"},
	{"bamx.decode_ns_per_rec", "ns", "lower"},
	{"bamx.index_lookup_us", "us", "lower"},
	{"bamx.bytes_per_bam_byte", "ratio", "lower"},
	{"bamz.compress_s", "s", "lower"},
	{"bamz.bytes_per_bam_byte", "ratio", "lower"},
	{"bamz.to_sam_s", "s", "lower"},
	{"bamz.partial_s", "s", "lower"},

	{"pamx.read_all_s", "s", "lower"},
	{"pamx.read_flag_s", "s", "lower"},
	{"pamx.read_coord_cigar_s", "s", "lower"},
	{"pamx.flag_bytes_share", "ratio", "lower"},
	{"pamx.bytes_per_bam_byte", "ratio", "lower"},
	{"pamx.groups", "count", "lower"},

	{"formats.sam_ns_per_rec", "ns", "lower"},
	{"formats.bed_ns_per_rec", "ns", "lower"},
	{"formats.fastq_ns_per_rec", "ns", "lower"},
	{"formats.json_ns_per_rec", "ns", "lower"},

	{"conv.sam_to_sam_s", "s", "lower"},
	{"conv.sam_to_bed_s", "s", "lower"},
	{"conv.sam_to_fastq_s", "s", "lower"},
	{"conv.bamx_to_sam_s", "s", "lower"},
	{"conv.bamx_to_bed_s", "s", "lower"},
	{"conv.bamx_to_fastq_s", "s", "lower"},
	{"conv.ranks1_sam_to_bed_s", "s", "lower"},
	{"conv.ranks1_bamx_to_sam_s", "s", "lower"},
	{"conv.rank_speedup_sam", "ratio", "higher"},
	{"conv.rank_speedup_bamx", "ratio", "higher"},
	{"conv.stats_partition_s", "s", "lower"},
	{"conv.stats_convert_s", "s", "lower"},
	{"conv.stats_preprocess_s", "s", "lower"},
	{"conv.merge_shards_s", "s", "lower"},
	{"conv.bam_sequential_s", "s", "lower"},

	{"parpipe.ns_per_item", "ns", "lower"},

	{"mpi.barrier_us", "us", "lower"},
	{"mpi.gather_mb_s", "MB/s", "higher"},
	{"mpinet.barrier_us", "us", "lower"},
	{"mpinet.gather_mb_s", "MB/s", "higher"},

	{"shard.plan_bam_us", "us", "lower"},
	{"shard.plan_bamx_us", "us", "lower"},
	{"shard.plan_pamx_us", "us", "lower"},
	{"shard.skew_bam", "ratio", "lower"},
	{"shard.foreach_us_per_shard", "us", "lower"},

	{"flagstat.body_ns_per_rec", "ns", "lower"},
	{"hist.interval_ns_per_rec", "ns", "lower"},
	{"peaks.coverage_peaks_s", "s", "lower"},

	{"nlmeans.seq_s", "s", "lower"},
	{"nlmeans.distributed_s", "s", "lower"},
	{"nlmeans.speedup", "ratio", "higher"},
	{"fdr.sequential_s", "s", "lower"},
	{"fdr.fused_s", "s", "lower"},
	{"fdr.twopass_s", "s", "lower"},
	{"fdr.parallel_speedup", "ratio", "higher"},

	{"sorter.sort_bam_s", "s", "lower"},

	{"daemon.submit_ms_p50", "ms", "lower"},
	{"daemon.queued_ms_p50", "ms", "lower"},
	{"daemon.run_ms_p50", "ms", "lower"},
	{"daemon.result_ms_p50", "ms", "lower"},
	{"daemon.overhead_ms_p50", "ms", "lower"},
	{"daemon.upload_p50_ms", "ms", "lower"},
	{"daemon.path_p50_ms", "ms", "lower"},
	{"daemon.deflate_p50_ms", "ms", "lower"},
	{"daemon.polls_per_job", "count", "lower"},
	{"daemon.shed", "count", "lower"},
	{"daemon.spool_mb_end", "MB", "lower"},

	{"obs.enabled_overhead_share", "ratio", "lower"},

	{"cpu.to_text", "s", "lower"},
	{"cpu.to_bam", "s", "lower"},
	{"cpu.to_bamx", "s", "lower"},
	{"cpu.to_pamx", "s", "lower"},
	{"cpu.partial", "s", "lower"},
	{"cpu.flagstat", "s", "lower"},
	{"cpu.hist", "s", "lower"},
	{"cpu.denoise", "s", "lower"},
	{"cpu.fdr", "s", "lower"},
	{"proc.alloc_mb", "MB", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.cpu_util", "ratio", "higher"},

	{"trace.overhead_share", "ratio", "lower"},
	{"budget.unattributed_share", "ratio", "lower"},
}

// scalingMetrics compare a parallel path with its sequential twin; on
// one core they read flat and say nothing, so results leave them out.
var scalingMetrics = map[string]bool{
	"conv.rank_speedup_sam":  true,
	"conv.rank_speedup_bamx": true,
	"nlmeans.speedup":        true,
	"fdr.parallel_speedup":   true,
	"bgzf.inflate_par_mb_s":  true,
	"bgzf.deflate_par_mb_s":  true,
}
