package conv

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"parseq/internal/mpi"
	"parseq/internal/partition"
	"parseq/internal/sam"
	"parseq/internal/shard"
)

// convertShare streams br's records through the rank's sink: the batch
// line engine encodes each batch's records into its output buffer and
// the buffers are written in input order.
func convertShare(src *sam.Source, br partition.ByteRange, workers int, sk *sink) (rankStats, error) {
	addBytesTotal(br.Len()) // the /progress ETA denominator
	st := rankStats{bytesIn: br.Len()}
	live := newLiveProgress()
	err := src.Batches(br, workers, sk.encoder, func(b *sam.Batch) error {
		st.records += b.Records
		st.emitted += b.Emitted
		live.batch(b.Records, int64(len(b.Chunk)), int64(len(b.Out)))
		return sk.write(b.Out)
	})
	return st, err
}

// preprocessShare is one rank of SAM preprocessing. The batch line
// engine encodes br's records as a BAM shard's are and the drain hands
// each to the rank's BAMX sink, which spills them raw beside bamxPath
// while it measures the caps, and on Close pads them into the BAMX/BAIX
// pair. Memory is O(batch); temporary disk is the rank's uncompressed
// records.
func preprocessShare(src *sam.Source, br partition.ByteRange, workers int, bamxPath, baixPath string) (n int64, err error) {
	out, err := shard.Create(bamxPath, src.Header, shard.WithIndexPath(baixPath))
	if err != nil {
		return 0, err
	}
	defer out.Abort()
	err = src.Batches(br, workers, func() sam.Visit { return bamEncoder(src.Header) }, func(b *sam.Batch) error {
		for rec := b.Out; len(rec) > 0; {
			size := 4 + int(binary.LittleEndian.Uint32(rec))
			if err := out.WriteBody(rec[4:size]); err != nil {
				return err
			}
			rec = rec[size:]
		}
		n += b.Records
		return nil
	})
	if err != nil {
		return 0, err
	}
	return n, out.Close()
}

// ConvertSAM is the paper's SAM format converter: the input file is
// evenly partitioned by bytes with Algorithm 1's line-breaker adjustment,
// and each rank independently parses its partition's records and emits
// target objects to its own file. There is no inter-rank communication
// after partitioning. With Format "bam" each rank's target is a BAM
// shard — SAM/BAM is in the paper's target-format list alongside the
// text formats.
func ConvertSAM(samPath string, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if opts.Region != nil {
		return nil, fmt.Errorf("conv: the SAM format converter does not support partial conversion; preprocess to BAMX first")
	}
	src, err := sam.Open(samPath)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return convert(&opts, src.Header, func(c *mpi.Comm) (func(*sink) (rankStats, error), error) {
		br, err := src.Partition(c)
		return func(sk *sink) (rankStats, error) { return convertShare(src, br, opts.ParseWorkers, sk) }, err
	})
}

// ConvertSAMToBAM is ConvertSAM with Format "bam".
func ConvertSAMToBAM(samPath string, opts Options) (*Result, error) {
	opts.Format = "bam"
	return ConvertSAM(samPath, opts)
}

// PreprocessSAMParallel is the preprocessing phase of the
// preprocessing-optimized SAM format converter (Section III-C): the SAM
// input is partitioned with Algorithm 1, and each of the opts.Cores ranks
// converts its text partition into a separate binary BAMX file with a
// BAIX index, <OutDir>/<OutPrefix>_m<rank>.{bamx,baix} (OutPrefix
// defaults to "pre"). Unlike the BAM preprocessor this phase
// parallelises, because SAM's line breakers make the partitioning
// possible. Each rank streams, in memory bounded by a batch: its records
// are spilled raw to OutDir and padded from there. A failed run leaves
// no rank's pair behind. ParseWorkers and Launch mean what they mean for
// ConvertSAM; under a distributed launcher each process preprocesses and
// records only its own rank's pair — the files on disk are the shared
// result.
func PreprocessSAMParallel(samPath string, opts Options) (*PreprocessResult, error) {
	if opts.OutPrefix == "" {
		opts.OutPrefix = "pre"
	}
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	start := time.Now()
	src, err := sam.Open(samPath)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	res := &PreprocessResult{
		BAMXFiles: make([]string, opts.Cores),
		BAIXFiles: make([]string, opts.Cores),
	}
	stats, err := run(&opts, "preprocess", func(c *mpi.Comm) (func() (rankStats, error), error) {
		br, err := src.Partition(c)
		return func() (rankStats, error) {
			base := filepath.Join(opts.OutDir, fmt.Sprintf("%s_m%03d", opts.OutPrefix, c.Rank()))
			n, err := preprocessShare(src, br, opts.ParseWorkers, base+".bamx", base+".baix")
			if err != nil {
				return rankStats{}, err
			}
			res.BAMXFiles[c.Rank()], res.BAIXFiles[c.Rank()] = base+".bamx", base+".baix"
			return rankStats{records: n}, nil
		}, err
	})
	if err != nil {
		// The pairs of ranks that succeeded could pass for a good result.
		for i := range res.BAMXFiles {
			os.Remove(res.BAMXFiles[i]) // "" for a rank that wrote none
			os.Remove(res.BAIXFiles[i])
		}
		return nil, err
	}
	res.Records = stats.Records
	res.Duration = time.Since(start)
	return res, nil
}

// ConvertPreprocessed runs the parallel conversion phase of the
// preprocessing-optimized SAM converter: each of the M BAMX files is
// converted in turn by N ranks, yielding M×N target files as the paper
// describes. baixFiles may be nil when no partial conversion is needed.
func ConvertPreprocessed(bamxFiles, baixFiles []string, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if len(bamxFiles) == 0 {
		return nil, fmt.Errorf("conv: no BAMX files to convert")
	}
	total := &Result{}
	basePrefix := opts.OutPrefix
	for m, bamxPath := range bamxFiles {
		baix := ""
		if m < len(baixFiles) {
			baix = baixFiles[m]
		}
		sub := opts
		sub.OutPrefix = fmt.Sprintf("%s_m%03d", basePrefix, m)
		r, err := ConvertBAMX(bamxPath, baix, sub)
		if err != nil {
			return nil, err
		}
		total.Files = append(total.Files, r.Files...)
		total.Stats.Records += r.Stats.Records
		total.Stats.Emitted += r.Stats.Emitted
		total.Stats.BytesIn += r.Stats.BytesIn
		total.Stats.BytesOut += r.Stats.BytesOut
		total.Stats.PartitionTime += r.Stats.PartitionTime
		total.Stats.ConvertTime += r.Stats.ConvertTime
	}
	return total, nil
}

// ConvertSAMPreprocessed is the complete preprocessing-optimized SAM
// format converter: parallel SAM→BAMX preprocessing with preCores ranks
// into a temporary directory under OutDir, removed on return, then
// parallel conversion with opts.Cores ranks. The returned Result's
// PreprocessTime carries the preprocessing phase separately, since the
// paper reports (and amortises) it separately.
func ConvertSAMPreprocessed(samPath string, preCores int, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	tmpDir, err := os.MkdirTemp(opts.OutDir, ".parseq-pre-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpDir)
	preOpts := opts
	preOpts.Cores = preCores
	preOpts.OutDir = tmpDir
	pre, err := PreprocessSAMParallel(samPath, preOpts)
	if err != nil {
		return nil, err
	}
	res, err := ConvertPreprocessed(pre.BAMXFiles, pre.BAIXFiles, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.PreprocessTime = pre.Duration
	return res, nil
}
