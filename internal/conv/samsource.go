package conv

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"parseq/internal/bamx"
	"parseq/internal/mpi"
	"parseq/internal/partition"
	"parseq/internal/sam"
)

// samSource is a SAM text file as the runtime reads it: opened and its
// header scanned once, then shared by the ranks, which read their
// partitions through positioned reads or the mapping.
type samSource struct {
	f         *os.File
	size      int64
	header    *sam.Header
	dataStart int64  // offset of the first alignment line
	mapped    []byte // whole-file mapping the batch engine parses out of; nil → streamed reads
	unmap     func() // releases mapped
	workers   int    // ParseWorkers: parse goroutines per rank; 1 parses inline
}

// openSAM opens the source. The batch engine parses straight out of the
// page cache through a read-only mapping where the platform and the file
// allow one (not an empty file, pipe, or filesystem without mmap).
func openSAM(path string, parseWorkers int) (*samSource, error) {
	f, size, err := openSized(path)
	if err != nil {
		return nil, err
	}
	s := &samSource{f: f, size: size, workers: parseWorkers, unmap: func() {}}
	if s.header, s.dataStart, err = sam.ScanHeader(f); err != nil {
		f.Close()
		return nil, err
	}
	if data, unmap, err := mmapFile(f); err == nil {
		s.mapped, s.unmap = data, unmap
	}
	return s, nil
}

// close releases the source; no record parsed by the batch engine may
// be used after it.
func (s *samSource) close() {
	s.unmap()
	s.f.Close()
}

// partition is Algorithm 1: the alignment section is split evenly by
// bytes and each boundary adjusted forward to the next line breaker.
func (s *samSource) partition(c *mpi.Comm) (partition.ByteRange, error) {
	return partition.SAMForwardMPI(c, s.f, s.dataStart, s.size)
}

// convert streams br's records through the rank's sink: each batch's
// records are encoded into its output buffer and the buffers written in
// input order.
func (s *samSource) convert(br partition.ByteRange, sk *sink) (rankStats, error) {
	addBytesTotal(br.Len()) // the /progress ETA denominator
	st := rankStats{bytesIn: br.Len()}
	live := newLiveProgress()
	err := s.batches(br, "conv.encode", func() batchFunc {
		encode := sk.encoder()
		return func(b *lineBatch, rec *sam.Record) error {
			out, err := encode(b.out, rec)
			if err != nil {
				return err
			}
			if len(out) != len(b.out) {
				b.emitted++
			}
			b.out = out
			return nil
		}
	}, func(b *lineBatch) error {
		st.records += b.records
		st.emitted += b.emitted
		live.batch(b.records, int64(len(b.chunk)), int64(len(b.out)))
		return sk.write(b.out)
	})
	return st, err
}

// collect parses br's records into a slice — what preprocessing does
// with a parsed record instead of encoding it. The records alias the
// batches' lines, which the source keeps alive until close.
func (s *samSource) collect(br partition.ByteRange) ([]sam.Record, error) {
	var recs []sam.Record
	err := s.batches(br, "conv.parse", func() batchFunc {
		return func(b *lineBatch, rec *sam.Record) error {
			b.recs = append(b.recs, *rec)
			*rec = sam.Record{} // the slice now owns the Cigar and Tags arrays
			return nil
		}
	}, func(b *lineBatch) error {
		if recs == nil && len(b.chunk) > 0 {
			// Size the rank's slice once, from the first batch's records
			// per byte, instead of regrowing it batch after batch.
			recs = make([]sam.Record, 0, int64(len(b.recs))*(br.Len()/int64(len(b.chunk))+1))
		}
		recs = append(recs, b.recs...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
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
	src, err := openSAM(samPath, opts.ParseWorkers)
	if err != nil {
		return nil, err
	}
	defer src.close()
	return convert(&opts, src.header, func(c *mpi.Comm) (func(*sink) (rankStats, error), error) {
		br, err := src.partition(c)
		return func(sk *sink) (rankStats, error) { return src.convert(br, sk) }, err
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
// possible. ParseWorkers and Launch mean what they mean for ConvertSAM;
// under a distributed launcher each process preprocesses and records
// only its own rank's pair — the files on disk are the shared result.
func PreprocessSAMParallel(samPath string, opts Options) (*PreprocessResult, error) {
	if opts.OutPrefix == "" {
		opts.OutPrefix = "pre"
	}
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	start := time.Now()
	src, err := openSAM(samPath, opts.ParseWorkers)
	if err != nil {
		return nil, err
	}
	defer src.close()
	res := &PreprocessResult{
		BAMXFiles: make([]string, opts.Cores),
		BAIXFiles: make([]string, opts.Cores),
	}
	stats, err := run(&opts, "preprocess", func(c *mpi.Comm) (func() (rankStats, error), error) {
		br, err := src.partition(c)
		return func() (rankStats, error) {
			recs, err := src.collect(br)
			if err != nil {
				return rankStats{}, err
			}
			base := filepath.Join(opts.OutDir, fmt.Sprintf("%s_m%03d", opts.OutPrefix, c.Rank()))
			_, err = writeIndexed(base+".bamx", base+".baix", func(w io.Writer) (*bamx.Index, error) {
				return bamx.BuildFromRecords(w, src.header, recs)
			})
			res.BAMXFiles[c.Rank()], res.BAIXFiles[c.Rank()] = base+".bamx", base+".baix"
			return rankStats{records: int64(len(recs))}, err
		}, err
	})
	if err != nil {
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
// format converter: parallel SAM→BAMX preprocessing with preCores ranks,
// then parallel conversion with opts.Cores ranks. The returned Result's
// PreprocessTime carries the preprocessing phase separately, since the
// paper reports (and amortises) it separately.
func ConvertSAMPreprocessed(samPath string, preCores int, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	// Under a distributed launcher both phases run on the same world, so
	// preCores must equal opts.Cores there (the launcher checks).
	preOpts := opts
	preOpts.Cores = preCores
	preOpts.OutPrefix += "_pre"
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
