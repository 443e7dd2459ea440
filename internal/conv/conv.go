// Package conv implements the paper's scalable sequence data format
// converter. Section III describes one runtime system — partitioning,
// read buffers, textual/binary parsing, the user program, write buffers,
// one target file per processor — and three converter instances that
// configure it. The code has the same shape: source × sink under one
// rank driver.
//
//   - A source partitions the input across ranks and yields each rank's
//     records in order. There are two: SAM text (Algorithm 1 byte
//     partitioning, then one batch line engine — inline on the rank's
//     goroutine at ParseWorkers 1, an order-preserving pipeline of
//     ParseWorkers parse goroutines above it) and a shard.Provider (BAMX,
//     BAMZ, PAMX or indexed BAM: the provider cuts the file — or the
//     region, for partial conversion — into one shard per rank and serves
//     each rank an independent reader; "region → records" lives there,
//     not here).
//     ConvertStream is the degenerate one-rank source — any ordered
//     record iterator — and ConvertBAMSequential is that over a BAM
//     reader.
//   - A sink is one rank's target file: text through a formats.Encoder
//     (the "user program": converting into a new format means writing one
//     Encode function), or a standalone BAM shard when Format is "bam".
//     Sinks do not depend on the source, so every source reaches every
//     target.
//   - run is the driver: it launches the ranks, brackets each rank's
//     partition step and work in phase spans, and folds the tallies.
//
// The converter instances of Section III are thin configurations:
// ConvertSAM (SAM source), ConvertBAM/ConvertBAMX (sequential BAMX/BAIX
// preprocessing, then the provider source), ConvertSAMPreprocessed
// (the SAM source collecting records into per-rank BAMX files, then the
// provider source).
package conv

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"parseq/internal/bgzf"
	"parseq/internal/formats"
	"parseq/internal/mpi"
	"parseq/internal/obs"
	"parseq/internal/sam"
	"parseq/internal/shard"
)

// Region selects a chromosome region for partial conversion, 1-based
// inclusive on both ends. A zero End means "to the end of the reference".
type Region struct {
	RName string
	Beg   int32
	End   int32
}

// String renders the region in samtools syntax.
func (r Region) String() string {
	if r.End == 0 {
		return fmt.Sprintf("%s:%d-", r.RName, r.Beg)
	}
	return fmt.Sprintf("%s:%d-%d", r.RName, r.Beg, r.End)
}

// ParseRegion parses "chr1", "chr1:100-200", "chr1:100-" or "chr1:100"
// (the single base). Coordinates are unsigned decimals below 2³¹.
func ParseRegion(s string) (Region, error) {
	name, span, bounded := strings.Cut(s, ":")
	if name == "" {
		return Region{}, fmt.Errorf("conv: region %q has no reference name", s)
	}
	r := Region{RName: name, Beg: 1}
	if !bounded {
		return r, nil
	}
	coord := func(t string) (int32, error) {
		n, err := strconv.ParseUint(t, 10, 31)
		if err != nil {
			return 0, fmt.Errorf("conv: bad coordinate %q in region %q", t, s)
		}
		return int32(n), nil
	}
	first, last, ranged := strings.Cut(span, "-")
	var err error
	if r.Beg, err = coord(first); err != nil {
		return r, err
	}
	switch {
	case !ranged:
		r.End = r.Beg
	case last != "":
		if r.End, err = coord(last); err != nil {
			return r, err
		}
		if r.End < r.Beg {
			return r, fmt.Errorf("conv: inverted region %q", s)
		}
	}
	return r, nil
}

// bound resolves the region into the provider's selection bound: the
// one place the 1-based inclusive [Beg, End] becomes the zero-based
// half-open [Beg-1, End) of alignment starts (an open End: the length).
func (r Region) bound(h *sam.Header) (*shard.Region, error) {
	id := h.RefID(r.RName)
	if id < 0 {
		return nil, fmt.Errorf("conv: region reference %q not in header", r.RName)
	}
	b := &shard.Region{Ref: r.RName, Beg: max(int(r.Beg)-1, 0), End: int(r.End)}
	if r.End <= 0 {
		b.End = h.RefByID(id).Length
	}
	return b, nil
}

// Options configures one conversion.
type Options struct {
	// Format is the target format name: a text format (see
	// formats.Names) or "bam", which makes every rank's target a
	// standalone BAM shard (fuse them with MergeBAMShards).
	Format string
	// Cores is the number of parallel ranks; 0 or 1 means sequential.
	Cores int
	// OutDir receives the per-rank target files.
	OutDir string
	// OutPrefix names the target files: <OutPrefix>_p<rank><ext>.
	OutPrefix string
	// Region restricts conversion to one chromosome region (partial
	// conversion). Only the provider-backed converters support it.
	Region *Region
	// CodecWorkers is the number of BGZF codec goroutines used wherever
	// BAM streams are read or written. 0 (the default) selects the
	// adaptive count — one worker per CPU, capped (bgzf.AutoWorkers) —
	// so CLIs get the parallel codec without flags; 1 forces the
	// sequential codec (the paper-faithful baseline). The codec
	// parallelism is orthogonal to Cores: Cores splits records across
	// ranks, CodecWorkers pipelines block compression/decompression
	// under each stream.
	CodecWorkers int
	// ParseWorkers is the per-rank parse/encode worker count of the SAM
	// source: each rank's partition is cut into ~256 KiB batches of whole
	// lines, ParseWorkers goroutines parse and encode the batches in
	// place (zero per-line allocation), and a single writer drains them
	// in input order — output bytes and error behaviour do not depend on
	// the count. 0 (the default) selects the adaptive count,
	// GOMAXPROCS/Cores clamped to [1, 8]; 1 parses on the rank's own
	// goroutine, one thread per rank (the paper-faithful baseline). With
	// ParseWorkers > 1, user formats registered via formats.Register get
	// one encoder instance per worker, so their Encode must not rely on
	// cross-record state.
	ParseWorkers int
	// Launch runs the converter's rank function across the world. Nil
	// (the default) selects mpi.Run — Cores goroutine ranks in this
	// process. A distributed launcher (mpinet.World.Launcher) executes
	// only the local process's rank, so Files, Stats and the shared
	// tally cover this rank alone; the per-rank target files on disk
	// are the cross-process ground truth.
	Launch mpi.Launcher

	// sharedCodec records that CodecWorkers was left at the adaptive
	// default: the short-lived per-rank BAM shard writers then attach to
	// the process-wide bgzf.SharedPool (sized from measured bytes/s per
	// worker) instead of each starting a private pool.
	sharedCodec bool
}

func (o *Options) normalize() error {
	if o.Format == "" {
		o.Format = "sam"
	}
	if o.Format != "bam" {
		// Refuse an unknown target before any input is opened or any
		// target file created.
		if _, err := formats.New(o.Format); err != nil {
			return err
		}
	}
	if o.Cores < 1 {
		o.Cores = 1
	}
	if o.CodecWorkers <= 0 {
		o.CodecWorkers = bgzf.AutoWorkers()
		o.sharedCodec = true
	}
	if o.ParseWorkers <= 0 {
		o.ParseWorkers = adaptiveParseWorkers(o.Cores)
	}
	if o.OutDir == "" {
		o.OutDir = "."
	}
	if o.OutPrefix == "" {
		o.OutPrefix = "out"
	}
	return nil
}

// launch resolves the Launch option, defaulting to the in-process world.
func (o *Options) launch() mpi.Launcher {
	if o.Launch != nil {
		return o.Launch
	}
	return mpi.Run
}

// outPath names rank r's target file.
func (o *Options) outPath(ext string, rank int) string {
	return filepath.Join(o.OutDir, fmt.Sprintf("%s_p%03d%s", o.OutPrefix, rank, ext))
}

// Stats aggregates counters over all ranks of a conversion.
type Stats struct {
	Records  int64 // alignment objects parsed
	Emitted  int64 // target objects written (skipped records excluded)
	BytesIn  int64 // input bytes consumed
	BytesOut int64 // target bytes written

	PartitionTime  time.Duration // Algorithm 1 / BAIX partitioning
	ConvertTime    time.Duration // parallel conversion phase (wall clock)
	PreprocessTime time.Duration // preprocessing phase, when one ran
}

// Result reports a completed conversion.
type Result struct {
	Files []string // per-rank target files, rank order
	Stats Stats
}

// PreprocessResult reports a preprocessing phase.
type PreprocessResult struct {
	BAMXFiles []string      // generated BAMX files (one per preprocessing rank)
	BAIXFiles []string      // matching BAIX index files
	Records   int64         // records preprocessed
	Duration  time.Duration // wall-clock preprocessing time
}

// rankStats is one rank's tally of its share.
type rankStats struct {
	records  int64
	emitted  int64
	bytesIn  int64
	bytesOut int64
}

// adaptiveParseWorkers sizes a rank's parse/encode pool when the knob
// is zero: the ranks already occupy Cores CPUs, so each gets its share
// of the remaining parallelism, clamped like the codec's AutoWorkers.
func adaptiveParseWorkers(cores int) int {
	w := runtime.GOMAXPROCS(0) / cores
	if w < 1 {
		w = 1
	}
	if w > 8 {
		w = 8
	}
	return w
}

// run is the runtime's one rank driver. plan is a rank's partition step
// and returns the rank's work; run launches the ranks, brackets plan in
// the "partition" span and the work in the phase span — ended on every
// path, so the spans carry the timing decomposition on every rank and
// land in the trace when enabled — and folds the ranks' tallies.
// PartitionTime and ConvertTime are the spans' wall-clock windows across
// ranks.
func run(opts *Options, phase string, plan func(c *mpi.Comm) (work func() (rankStats, error), err error)) (Stats, error) {
	var records, emitted, bytesIn, bytesOut atomic.Int64
	ph := obs.NewPhaseSet(obs.Default())
	err := opts.launch()(opts.Cores, func(c *mpi.Comm) error {
		psp := ph.Start(c.Rank(), "partition")
		work, err := plan(c)
		psp.End()
		if err != nil {
			return err
		}
		wsp := ph.Start(c.Rank(), phase)
		defer wsp.End()
		st, err := work()
		if err != nil {
			return err
		}
		records.Add(st.records)
		emitted.Add(st.emitted)
		bytesIn.Add(st.bytesIn)
		bytesOut.Add(st.bytesOut)
		return nil
	})
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Records: records.Load(), Emitted: emitted.Load(),
		BytesIn: bytesIn.Load(), BytesOut: bytesOut.Load(),
		PartitionTime: ph.Wall("partition"), ConvertTime: ph.Wall(phase),
	}, nil
}
