package conv

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"parseq/internal/bam"
	"parseq/internal/mpi"
	"parseq/internal/sam"
	"parseq/internal/shard"
)

// convertProvider is the parallel conversion phase over any container a
// shard.Provider reads — the runtime's one binary record source. Rank 0
// cuts the selection (the whole file, or opts.Region's records) into one
// shard per rank (shard.Distribute); each rank drains its contiguous
// group in order through independent readers, with no further
// communication. Whole-file shards are in file order, so the
// concatenated rank outputs replay the file; a region's are in
// coordinate order. The provider is closed on return.
func convertProvider(p shard.Provider, opts Options) (*Result, error) {
	defer p.Close()
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	h, err := p.Header()
	if err != nil {
		return nil, err
	}
	sel := shard.Options{TargetShards: opts.Cores}
	if opts.Region != nil {
		if sel.Region, err = opts.Region.bound(h); err != nil {
			return nil, err
		}
	}
	return convert(&opts, h, func(c *mpi.Comm) (func(*sink) (rankStats, error), error) {
		shards, err := shard.Distribute(c, p, sel)
		return func(sk *sink) (rankStats, error) { return convertShards(p, h, shards, sk) }, err
	})
}

// convertShards streams one rank's shards, in order, through its sink.
// Input consumed is the byte weight of the shards drained plus the body
// bytes read of the open one, capped at its weight: exact at every shard
// boundary, so a fixed-stride source reports records × stride.
func convertShards(p shard.Provider, h *sam.Header, shards []shard.Shard, sk *sink) (rankStats, error) {
	for _, sh := range shards {
		addBytesTotal(sh.Bytes)
	}
	var (
		rr        shard.RecordReader // open on shards[0]; nil between shards
		done, cur int64              // input bytes: of drained shards, of the open one
	)
	defer func() {
		if rr != nil {
			rr.Close()
		}
	}()
	next := func(rec *sam.Record) (bool, error) {
		for len(shards) > 0 {
			if rr == nil {
				var err error
				if rr, err = p.NewReader(shards[0]); err != nil {
					return false, err
				}
			}
			body, err := rr.NextBody()
			if err == nil {
				cur = min(cur+int64(len(body))+4, shards[0].Bytes)
				return true, bam.DecodeRecord(body, rec, h)
			}
			if err != io.EOF {
				return false, err
			}
			err, rr = rr.Close(), nil
			if err != nil {
				return false, err
			}
			done, cur, shards = done+shards[0].Bytes, 0, shards[1:]
		}
		return false, nil
	}
	return convertRecords(next, func() int64 { return done + cur }, sk)
}

// readerCodec is each shard reader's share of the codec budget the
// ranks divide (under a BAMZ reader even one readahead worker overlaps
// decompression with conversion). The copy of opts resolves the adaptive
// default; an invalid option resurfaces in convertProvider.
func readerCodec(opts Options) shard.Option {
	if opts.normalize() != nil || opts.CodecWorkers <= 1 {
		return shard.WithCodecWorkers(0)
	}
	return shard.WithCodecWorkers(max(1, opts.CodecWorkers/opts.Cores))
}

// ConvertIndexed converts any container a shard provider reads (indexed
// BAM, BAMX, BAMZ, PAMX — shard.OpenPathProvider, by extension), all of
// it or opts.Region. indexPath overrides the sidecar index when not "".
func ConvertIndexed(path, indexPath string, opts Options) (*Result, error) {
	return convertProvider(shard.OpenPathProvider(path, shard.WithIndexPath(indexPath), readerCodec(opts)), opts)
}

// ConvertBAMX is the parallel conversion phase of the BAM format
// converter (and of the preprocessing-optimized SAM converter) over the
// fixed-stride BAMX file: equal physical record ranges, in file order.
// With opts.Region set, the BAIX index (baixPath, or the sidecar beside
// the file; rebuilt by a scan when missing) maps the region to a
// contiguous entry range first (partial conversion).
func ConvertBAMX(bamxPath, baixPath string, opts Options) (*Result, error) {
	return convertProvider(shard.NewBAMXProvider(bamxPath, shard.WithIndexPath(baixPath)), opts)
}

// ConvertBAMZ is ConvertBAMX for compressed BAMX files: the same
// partitioning, with each rank decompressing only the blocks its records
// live in. Partial conversion needs the BAIX — a compressed file has no
// scan to rebuild it from.
func ConvertBAMZ(bamzPath, baixPath string, opts Options) (*Result, error) {
	return convertProvider(shard.NewBAMZProvider(bamzPath, shard.WithIndexPath(baixPath), readerCodec(opts)), opts)
}

func openSized(path string) (*os.File, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// ConvertBAM is the complete BAM format converter of Section III-B:
// sequential preprocessing into a temporary BAMX/BAIX pair, then
// embarrassingly parallel conversion of the fixed-stride file. The
// temporary files live under OutDir (same filesystem as the output) and
// are removed when the conversion finishes. PreprocessTime carries the
// sequential phase separately, as the paper reports it.
func ConvertBAM(bamPath string, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	tmpDir, err := os.MkdirTemp(opts.OutDir, ".parseq-pre-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpDir)
	bamxPath := filepath.Join(tmpDir, "pre.bamx")
	baixPath := filepath.Join(tmpDir, "pre.baix")
	pre, err := PreprocessBAMFile(bamPath, bamxPath, baixPath, opts.CodecWorkers)
	if err != nil {
		return nil, err
	}
	res, err := ConvertBAMX(bamxPath, baixPath, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.PreprocessTime = pre.Duration
	return res, nil
}

// ConvertStream converts one ordered record stream on one rank: the
// degenerate source, a single share holding the whole stream. next
// decodes the following record into its argument (false at the end) and
// consumed reports the input bytes read so far. Region is rejected — a
// stream has no index to resolve it — and Cores is forced to 1.
// ConvertBAMSequential is built on it; the paper-baseline harness
// (internal/experiments) feeds it a deliberately slower iterator.
func ConvertStream(h *sam.Header, next func(*sam.Record) (bool, error), consumed func() int64, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if opts.Region != nil {
		return nil, fmt.Errorf("conv: a sequential record stream does not support partial conversion; preprocess to BAMX first")
	}
	opts.Cores, opts.Launch = 1, nil
	return convert(&opts, h, func(*mpi.Comm) (func(*sink) (rankStats, error), error) {
		return func(sk *sink) (rankStats, error) { return convertRecords(next, consumed, sk) }, nil
	})
}

// ConvertBAMSequential converts a BAM file record-at-a-time on one core —
// the paper's "BAM format converter without preprocessing" Table I
// configuration: ConvertStream over the file's BAM reader.
func ConvertBAMSequential(bamPath string, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil { // resolves the codec workers the reader gets
		return nil, err
	}
	f, size, err := openSized(bamPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br, err := bam.NewReader(f, bam.WithCodecWorkers(opts.CodecWorkers))
	if err != nil {
		return nil, err
	}
	defer br.Close()
	addBytesTotal(size)
	next := func(rec *sam.Record) (bool, error) {
		err := br.ReadInto(rec)
		if err == io.EOF {
			return false, nil
		}
		return err == nil, err
	}
	// Input consumed is how far the codec has read the file (an offset
	// query that cannot fail on an open regular file): all of it once the
	// stream ends.
	return ConvertStream(br.Header(), next, func() int64 {
		off, _ := f.Seek(0, io.SeekCurrent)
		return off
	}, opts)
}
