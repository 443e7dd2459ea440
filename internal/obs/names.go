package obs

import "regexp"

// MetricKind classifies a canonical metric for the Prometheus exposition
// (TYPE lines) and for the name-registry test.
type MetricKind int

const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

// MetricInfo is one row of the canonical metric-name inventory.
type MetricInfo struct {
	Name string
	Kind MetricKind
	Help string
}

// metricNameRE is the naming contract every stable metric must satisfy:
// lowercase dot-separated segments, each segment lowercase letters,
// digits and underscores, starting with a letter.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$`)

// ValidMetricName reports whether name satisfies the stable-name
// contract (lowercase.dot.separated). Per-rank series substitute a rank
// number into a `<prefix>rank<N>.<suffix>` family; those are validated
// by the family entry, with the digits allowed mid-segment.
func ValidMetricName(name string) bool { return metricNameRE.MatchString(name) }

// MetricNames is the canonical inventory of stable metric names the
// subsystems export. New metrics MUST be added here; TestMetricNames
// fails the suite on collisions or names violating the contract, so the
// scrape surface (Prometheus relies on stable series names) cannot
// drift silently. Families parameterised by rank or pipeline name list
// one representative instance per deployed name.
var MetricNames = []MetricInfo{
	// mpi: per-rank communication counters (rank0 stands for the family).
	{"mpi.wait_ns", KindCounter, "total ns all ranks spent blocked in Send/Recv/Barrier"},
	{"mpi.rank0.send_wait_ns", KindCounter, "ns rank spent blocked in Send"},
	{"mpi.rank0.recv_wait_ns", KindCounter, "ns rank spent blocked in Recv"},
	{"mpi.rank0.barrier_wait_ns", KindCounter, "ns rank spent blocked in Barrier"},
	{"mpi.rank0.sends", KindCounter, "point-to-point sends issued by rank"},
	{"mpi.rank0.recvs", KindCounter, "point-to-point receives issued by rank"},
	{"mpi.rank0.barriers", KindCounter, "barriers entered by rank"},
	{"mpi.rank0.send_bytes", KindCounter, "payload bytes sent by rank"},

	// mpinet: the TCP transport.
	{"mpinet.bytes_out", KindCounter, "frame bytes written to peers"},
	{"mpinet.bytes_in", KindCounter, "frame bytes read from peers"},
	{"mpinet.frames_out", KindCounter, "frames written to peers"},
	{"mpinet.frames_in", KindCounter, "frames read from peers"},
	{"mpinet.dial_retries", KindCounter, "mesh/rendezvous dial attempts that failed and were retried"},
	{"mpinet.aborts", KindCounter, "world aborts observed by this process"},
	{"mpinet.send_ns", KindHistogram, "frame write latency"},
	{"mpinet.recv_wait_ns", KindHistogram, "time blocked waiting for an inbound message"},
	{"mpinet.telemetry_frames", KindCounter, "out-of-band telemetry frames shipped"},
	{"mpinet.telemetry_dropped", KindCounter, "telemetry frames dropped because the inbox was full"},

	// parpipe pipelines (one entry per deployed pipeline name).
	{"parpipe.bgzf.deflate.items", KindCounter, "jobs completed by the parallel BGZF deflate pipeline"},
	{"parpipe.bgzf.deflate.busy_ns", KindCounter, "worker ns spent running BGZF deflate jobs"},
	{"parpipe.bgzf.deflate.idle_ns", KindCounter, "worker ns spent waiting for BGZF deflate jobs"},
	{"parpipe.bgzf.deflate.queue_depth", KindGauge, "BGZF deflate jobs queued and not yet picked up"},
	{"parpipe.bgzf.inflate.items", KindCounter, "jobs completed by the parallel BGZF inflate pipeline"},
	{"parpipe.bgzf.inflate.busy_ns", KindCounter, "worker ns spent running BGZF inflate jobs"},
	{"parpipe.bgzf.inflate.idle_ns", KindCounter, "worker ns spent waiting for BGZF inflate jobs"},
	{"parpipe.bgzf.inflate.queue_depth", KindGauge, "BGZF inflate jobs queued and not yet picked up"},
	{"parpipe.bam.decode.items", KindCounter, "block batches decoded by the parallel BAM scanner"},
	{"parpipe.bam.decode.busy_ns", KindCounter, "worker ns spent decoding BAM record batches"},
	{"parpipe.bam.decode.idle_ns", KindCounter, "worker ns spent waiting for BAM record batches"},
	{"parpipe.bam.decode.queue_depth", KindGauge, "BAM decode batches queued and not yet picked up"},
	{"parpipe.conv.encode.items", KindCounter, "SAM line batches visited by the batch line engine"},
	{"parpipe.conv.encode.busy_ns", KindCounter, "worker ns spent parsing+visiting SAM line batches"},
	{"parpipe.conv.encode.idle_ns", KindCounter, "worker ns spent waiting for SAM line batches"},
	{"parpipe.conv.encode.queue_depth", KindGauge, "SAM line batches queued and not yet picked up"},

	// BGZF codec streams and the shared deflate pool.
	{"bgzf.deflate.blocks", KindCounter, "BGZF blocks compressed"},
	{"bgzf.deflate.bytes_in", KindCounter, "payload bytes into the BGZF deflater"},
	{"bgzf.deflate.bytes_out", KindCounter, "compressed bytes out of the BGZF deflater"},
	{"bgzf.deflate.latency_ns", KindHistogram, "per-block BGZF deflate latency"},
	{"bgzf.inflate.blocks", KindCounter, "BGZF blocks decompressed"},
	{"bgzf.inflate.bytes_in", KindCounter, "compressed bytes into the BGZF inflater"},
	{"bgzf.inflate.bytes_out", KindCounter, "payload bytes out of the BGZF inflater"},
	{"bgzf.inflate.latency_ns", KindHistogram, "per-block BGZF inflate latency"},
	{"bgzf.prefetch.chunks", KindCounter, "file chunks prefetched ahead of the BGZF scanner"},
	{"bgzf.prefetch.bytes", KindCounter, "bytes prefetched ahead of the BGZF scanner"},
	{"bgzf.shared.workers", KindGauge, "current worker count of the shared deflate pool"},
	{"bgzf.shared_pool.throughput", KindGauge, "EWMA bytes/s one shared-pool worker delivers (admission-control signal)"},

	// Decoded-record and sorter counters.
	{"bam.decode.records", KindCounter, "BAM records decoded by the parallel scanner"},
	{"sorter.records", KindCounter, "records sorted"},
	{"sorter.runs", KindCounter, "spill runs written by the sorter"},

	// Converter live progress (the /progress endpoint's inputs).
	{"conv.records", KindCounter, "records converted so far, all ranks in this process"},
	{"conv.bytes_in", KindCounter, "input bytes consumed by the converter"},
	{"conv.bytes_out", KindCounter, "output bytes written by the converter"},
	{"conv.bytes_total", KindGauge, "total input bytes this process's ranks own (ETA denominator)"},

	// Go runtime sampler (sampler.go).
	{"go.goroutines", KindGauge, "live goroutines"},
	{"go.heap_objects_bytes", KindGauge, "bytes of live heap objects"},
	{"go.mem_total_bytes", KindGauge, "total bytes of memory mapped by the Go runtime"},
	{"go.gc_cycles", KindGauge, "completed GC cycles"},
	{"go.gc_pause_total_ns", KindGauge, "cumulative GC stop-the-world pause ns"},
	{"go.gc_cpu_ns", KindGauge, "cumulative CPU ns spent in GC"},
	{"go.mutex_wait_ns", KindGauge, "cumulative ns goroutines spent blocked on mutexes"},
	{"go.sched_latency_p50_ns", KindGauge, "median goroutine scheduling latency"},
	{"go.sched_latency_p99_ns", KindGauge, "p99 goroutine scheduling latency"},

	// Columnar PAMX reader (internal/formats/pamx): the measured half of
	// field projection — uncompressed column bytes actually inflated vs
	// left compressed on disk, and the projection mask last applied.
	{"pamx.bytes_inflated", KindCounter, "uncompressed column bytes inflated under the active projections"},
	{"pamx.bytes_skipped", KindCounter, "uncompressed column bytes skipped (never inflated) by projection"},
	{"pamx.fields", KindGauge, "projection bitmask of the most recent PAMX group open"},

	// Genomic-range shard layer (internal/shard).
	{"shard.count", KindCounter, "region shards drained by this process's workers"},
	{"shard.bytes", KindCounter, "estimated compressed bytes under the drained shards"},
	{"shard.steal", KindCounter, "shards a worker pulled beyond its first (dynamic-queue steals)"},
	{"shard.skew", KindGauge, "per-mille ratio of the busiest worker's shard bytes to the mean"},

	// Conversion/analysis daemon (internal/daemon): the job queue and
	// its load-shedding admission control.
	{"daemon.jobs", KindCounter, "jobs admitted into the queue"},
	{"daemon.rejected", KindCounter, "submissions shed by admission control (429)"},
	{"daemon.queue_depth", KindGauge, "jobs admitted and not yet running"},
	{"daemon.running", KindGauge, "jobs currently executing"},
	{"daemon.job_ns", KindHistogram, "job wall time from start to terminal state"},

	// World-level telemetry derived by rank 0's gather (world.go).
	{"world.size", KindGauge, "ranks known to the telemetry gather"},
	{"world.straggler", KindGauge, "ranks whose progress lags the world median"},
	{"world.down", KindGauge, "ranks whose heartbeat has been lost"},
}

// MetricHelp returns the canonical help string and kind for a stable
// metric name, or ok=false for names outside the inventory (per-rank
// and per-pipeline family instances resolve through their
// representative entry only when they match it exactly).
func MetricHelp(name string) (MetricInfo, bool) {
	for _, m := range MetricNames {
		if m.Name == name {
			return m, true
		}
	}
	return MetricInfo{}, false
}
