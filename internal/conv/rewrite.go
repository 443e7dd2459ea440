package conv

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"parseq/internal/bam"
	"parseq/internal/bamx"
	"parseq/internal/obs"
	"parseq/internal/sam"
	"parseq/internal/shard"
)

// Whole-file container rewrites around the converter: BAM → BAMX/BAIX
// preprocessing, BAM shards → one BAM, and BAMX → BAMZ compression. The
// first two are a record source feeding a shard.Sink — shard.Rewrite
// when the source is one file — so the container writers and their
// commit-by-rename live in package shard alone; compression is
// bamx.CompressFile's, block for block.

// PreprocessBAMFile is the sequential preprocessing phase of the BAM
// format converter: BAM in, BAMX + BAIX out. The BAM format's lack of
// record delimiters forces the record scan to be sequential (Section
// III-B), but BGZF block decompression pipelines under it on
// codecWorkers goroutines (0 selects the adaptive count, 1 the
// sequential codec). The BAM is inflated once: the BAMX sink spills the
// bodies raw beside bamxPath while it measures the field caps, then pads
// them from the spill.
func PreprocessBAMFile(bamPath, bamxPath, baixPath string, codecWorkers int) (*PreprocessResult, error) {
	if !strings.HasSuffix(bamxPath, ".bamx") {
		return nil, fmt.Errorf("conv: BAMX output %s needs a .bamx extension", bamxPath)
	}
	start := time.Now()
	sp := obs.Default().StartSpan(0, 0, "preprocess")
	defer sp.End()
	n, err := shard.Rewrite(bamPath, bamxPath, shard.WithIndexPath(baixPath), shard.WithCodecWorkers(codecWorkers))
	if err != nil {
		return nil, err
	}
	return &PreprocessResult{
		BAMXFiles: []string{bamxPath},
		BAIXFiles: []string{baixPath},
		Records:   n,
		Duration:  time.Since(start),
	}, nil
}

// CompressBAMXFile rewrites a plain BAMX file as a compressed one (the
// paper's Section VII compression extension). The BAIX index is
// unchanged: record indices are preserved, so an existing index keeps
// working against the compressed file. Members deflate on the caller.
func CompressBAMXFile(bamxPath, bamzPath string, recsPerBlock int) (int64, error) {
	return bamx.CompressFile(bamxPath, bamzPath, recsPerBlock, 1)
}

// MergeBAMShards fuses per-rank BAM shards (which share one header) into
// a single BAM file, streaming records in shard order, with both the
// shard decode and the fused encode running codecWorkers BGZF goroutines
// per stream (0 selects the adaptive count). Every record is decoded and
// re-encoded under the first shard's header: the shards may come from
// anywhere, and that is the check on them.
func MergeBAMShards(shardPaths []string, outPath string, codecWorkers int) (int64, error) {
	if len(shardPaths) == 0 {
		return 0, fmt.Errorf("conv: no shards to merge")
	}
	var (
		header *sam.Header // the first shard's
		out    *shard.Sink
		total  int64
		rec    sam.Record
		buf    []byte
	)
	defer func() {
		if out != nil {
			out.Abort()
		}
	}()
	for _, path := range shardPaths {
		err := func() error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			r, err := bam.NewReader(f, bam.WithCodecWorkers(codecWorkers))
			if err != nil {
				return err
			}
			defer r.Close()
			if header == nil {
				header = r.Header()
				if out, err = shard.Create(outPath, header, shard.WithCodecWorkers(codecWorkers)); err != nil {
					return err
				}
			} else if refs := len(r.Header().Refs); refs != len(header.Refs) {
				return fmt.Errorf("conv: shard %s has %d references, expected %d", path, refs, len(header.Refs))
			}
			for {
				if err := r.ReadInto(&rec); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
				if buf, err = bam.EncodeRecord(buf[:0], &rec, header); err != nil {
					return err
				}
				if err := out.WriteBody(buf[4:]); err != nil {
					return err
				}
				total++
			}
		}()
		if err != nil {
			return 0, err
		}
	}
	return total, out.Close()
}
