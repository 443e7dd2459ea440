package conv

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"parseq/internal/mpi"
	"parseq/internal/sam"
	"parseq/internal/shard"
)

// convertProvider is the parallel conversion phase over any container a
// shard.Provider reads — the runtime's one binary record source. Rank 0
// cuts the selection (the whole file, or opts.Region's records) into one
// shard per rank (shard.Distribute; a bare BAM is one piece for all
// ranks); each rank drains its contiguous group in order through
// independent readers, with no further communication. Whole-file shards
// are in file order, so the concatenated rank outputs replay the file; a
// region's are in coordinate order, or file order from a bare BAM.
// The provider is closed on return.
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
		return func(sk *sink) (rankStats, error) { return convertShards(p, shards, sk) }, err
	})
}

// convertShards streams one rank's shards, in order, through its sink's
// body step (sink.bodyStep).
// Input consumed is the byte weight of the shards drained plus the body
// bytes read of the open one, capped at its weight: exact at every shard
// boundary, so a fixed-stride source reports records × stride.
func convertShards(p shard.Provider, shards []shard.Shard, sk *sink) (rankStats, error) {
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
	step := sk.bodyStep()
	next := func(dst []byte) ([]byte, bool, error) {
		for len(shards) > 0 {
			if rr == nil {
				var err error
				if rr, err = p.NewReader(shards[0]); err != nil {
					return dst, false, err
				}
			}
			body, err := rr.NextBody()
			if err == nil {
				cur = min(cur+int64(len(body))+4, shards[0].Bytes)
				dst, err = step(dst, body)
				return dst, true, err
			}
			if err != io.EOF {
				return dst, false, err
			}
			err, rr = rr.Close(), nil
			if err != nil {
				return dst, false, err
			}
			done, cur, shards = done+shards[0].Bytes, 0, shards[1:]
		}
		return dst, false, nil
	}
	return convertRecords(next, func() int64 { return done + cur }, sk)
}

// readerCodec is each shard reader's share of an explicit codec count,
// which the ranks divide. At the default count the provider places the
// inflate: index shards and pieces on the caller, a BAM's lone piece on
// bgzf's adaptive count.
func readerCodec(opts Options) []shard.Option {
	if opts.CodecWorkers <= 0 {
		return nil
	}
	return []shard.Option{shard.WithCodecWorkers(max(1, opts.CodecWorkers/max(opts.Cores, 1)))}
}

// ConvertIndexed converts any container a shard provider reads (BAM,
// BAMX, BAMZ, PAMX — shard.OpenPathProvider, by extension), all of it or
// opts.Region. indexPath overrides the sidecar index (.bai or .baix)
// when not "".
func ConvertIndexed(path, indexPath string, opts Options) (*Result, error) {
	return convertProvider(shard.OpenPathProvider(path, append(readerCodec(opts), shard.WithIndexPath(indexPath))...), opts)
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
	return convertProvider(shard.NewBAMZProvider(bamzPath, append(readerCodec(opts), shard.WithIndexPath(baixPath))...), opts)
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
// stream has no index to resolve it — and Cores is forced to 1. The
// paper-baseline harness (internal/experiments) feeds it a deliberately
// slower iterator.
func ConvertStream(h *sam.Header, next func(*sam.Record) (bool, error), consumed func() int64, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if opts.Region != nil {
		return nil, fmt.Errorf("conv: a sequential record stream does not support partial conversion; preprocess to BAMX first")
	}
	opts.Cores, opts.Launch = 1, nil
	return convert(&opts, h, func(*mpi.Comm) (func(*sink) (rankStats, error), error) {
		return func(sk *sink) (rankStats, error) {
			encode := sk.encoder()
			var rec sam.Record
			return convertRecords(func(dst []byte) ([]byte, bool, error) {
				ok, err := next(&rec)
				if err != nil || !ok {
					return dst, false, err
				}
				dst, err = encode(dst, &rec)
				return dst, true, err
			}, consumed, sk)
		}, nil
	})
}

// ConvertBAMSequential converts a BAM file on one rank, forcing Cores to
// 1 — the paper's "BAM format converter without preprocessing" Table I
// configuration: the BAM provider, which reads a whole file at one rank
// as one piece, in file order.
func ConvertBAMSequential(bamPath string, opts Options) (*Result, error) {
	opts.Cores, opts.Launch = 1, nil
	return convertProvider(shard.NewBAMProvider(bamPath, readerCodec(opts)...), opts)
}
