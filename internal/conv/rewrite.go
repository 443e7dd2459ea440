package conv

import (
	"fmt"
	"io"
	"os"
	"time"

	"parseq/internal/bam"
	"parseq/internal/bamx"
	"parseq/internal/obs"
	"parseq/internal/sam"
)

// Whole-file container rewrites around the converter: BAM → BAMX/BAIX
// preprocessing, BAMX → BAMZ compression, BAM shards → one BAM.

// writeIndexed creates a BAMX file through build and writes the BAIX
// index build returns beside it. On any error both files are removed: a
// failed preprocessing leaves nothing a later run could mistake for a
// complete pair.
func writeIndexed(bamxPath, baixPath string, build func(io.Writer) (*bamx.Index, error)) (idx *bamx.Index, err error) {
	out, err := os.Create(bamxPath)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			os.Remove(bamxPath)
		}
	}()
	if idx, err = build(out); err != nil {
		out.Close()
		return nil, err
	}
	if err = out.Close(); err != nil {
		return nil, err
	}
	ixf, err := os.Create(baixPath)
	if err != nil {
		return nil, err
	}
	_, err = idx.WriteTo(ixf)
	if cerr := ixf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(baixPath)
		return nil, err
	}
	return idx, nil
}

// PreprocessBAMFile is the sequential preprocessing phase of the BAM
// format converter: BAM in, BAMX + BAIX out. The BAM format's lack of
// record delimiters forces the record scan to be sequential (Section
// III-B), but BGZF block decompression pipelines under it on
// codecWorkers goroutines (0 selects the adaptive count, 1 the
// sequential codec).
func PreprocessBAMFile(bamPath, bamxPath, baixPath string, codecWorkers int) (*PreprocessResult, error) {
	start := time.Now()
	sp := obs.Default().StartSpan(0, 0, "preprocess")
	defer sp.End()
	in, err := os.Open(bamPath)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	idx, err := writeIndexed(bamxPath, baixPath, func(w io.Writer) (*bamx.Index, error) {
		return bamx.PreprocessBAMWorkers(in, w, codecWorkers)
	})
	if err != nil {
		return nil, err
	}
	return &PreprocessResult{
		BAMXFiles: []string{bamxPath},
		BAIXFiles: []string{baixPath},
		Records:   int64(idx.Len()),
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
// per stream (0 selects the adaptive count).
func MergeBAMShards(shardPaths []string, outPath string, codecWorkers int) (int64, error) {
	if len(shardPaths) == 0 {
		return 0, fmt.Errorf("conv: no shards to merge")
	}
	first, err := os.Open(shardPaths[0])
	if err != nil {
		return 0, err
	}
	firstReader, err := bam.NewReader(first)
	if err != nil {
		first.Close()
		return 0, err
	}
	header := firstReader.Header()
	firstReader.Close()
	first.Close()

	out, err := os.Create(outPath)
	if err != nil {
		return 0, err
	}
	total, err := mergeShards(out, header, shardPaths, codecWorkers)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// A failed merge leaves no truncated BAM behind.
		os.Remove(outPath)
	}
	return total, err
}

// mergeShards streams every shard's records, in shard order, into one
// BAM stream on out; the writer is closed on every path.
func mergeShards(out io.Writer, header *sam.Header, shardPaths []string, codecWorkers int) (total int64, err error) {
	bw, err := bam.NewWriter(out, header, bam.WithCodecWorkers(codecWorkers))
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := bw.Close(); err == nil {
			err = cerr
		}
	}()
	var rec sam.Record
	for _, shard := range shardPaths {
		n, err := appendShard(bw, &rec, shard, len(header.Refs), codecWorkers)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// appendShard copies one shard's records into bw.
func appendShard(bw *bam.Writer, rec *sam.Record, shard string, refs, codecWorkers int) (int64, error) {
	f, err := os.Open(shard)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r, err := bam.NewReader(f, bam.WithCodecWorkers(codecWorkers))
	if err != nil {
		return 0, err
	}
	defer r.Close()
	if len(r.Header().Refs) != refs {
		return 0, fmt.Errorf("conv: shard %s has %d references, expected %d",
			shard, len(r.Header().Refs), refs)
	}
	for n := int64(0); ; n++ {
		if err := r.ReadInto(rec); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, err
		}
		if err := bw.Write(rec); err != nil {
			return n, err
		}
	}
}
