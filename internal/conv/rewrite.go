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
// index build returns beside it.
func writeIndexed(bamxPath, baixPath string, build func(io.Writer) (*bamx.Index, error)) (*bamx.Index, error) {
	out, err := os.Create(bamxPath)
	if err != nil {
		return nil, err
	}
	idx, err := build(out)
	if err != nil {
		out.Close()
		return nil, err
	}
	if err := out.Close(); err != nil {
		return nil, err
	}
	ixf, err := os.Create(baixPath)
	if err != nil {
		return nil, err
	}
	if _, err := idx.WriteTo(ixf); err != nil {
		ixf.Close()
		return nil, err
	}
	return idx, ixf.Close()
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
// working against the compressed file.
func CompressBAMXFile(bamxPath, bamzPath string, recsPerBlock int) (int64, error) {
	return CompressBAMXFileWorkers(bamxPath, bamzPath, recsPerBlock, 0)
}

// CompressBAMXFileWorkers is CompressBAMXFile with block deflation
// fanned out over `workers` goroutines.
func CompressBAMXFileWorkers(bamxPath, bamzPath string, recsPerBlock, workers int) (int64, error) {
	in, size, err := openSized(bamxPath)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	xf, err := bamx.Open(in, size)
	if err != nil {
		return 0, err
	}
	out, err := os.Create(bamzPath)
	if err != nil {
		return 0, err
	}
	n, err := bamx.CompressBAMXWorkers(xf, out, recsPerBlock, workers)
	if err != nil {
		out.Close()
		return 0, err
	}
	return n, out.Close()
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
	bw, err := bam.NewWriter(out, header, bam.WithCodecWorkers(codecWorkers))
	if err != nil {
		out.Close()
		return 0, err
	}
	var total int64
	var rec sam.Record
	fail := func(f *os.File, r *bam.Reader, err error) (int64, error) {
		if r != nil {
			r.Close()
		}
		if f != nil {
			f.Close()
		}
		bw.Close()
		out.Close()
		return total, err
	}
	for _, shard := range shardPaths {
		f, err := os.Open(shard)
		if err != nil {
			return fail(nil, nil, err)
		}
		r, err := bam.NewReader(f, bam.WithCodecWorkers(codecWorkers))
		if err != nil {
			return fail(f, nil, err)
		}
		if len(r.Header().Refs) != len(header.Refs) {
			return fail(f, r, fmt.Errorf("conv: shard %s has %d references, expected %d",
				shard, len(r.Header().Refs), len(header.Refs)))
		}
		for {
			if err := r.ReadInto(&rec); err == io.EOF {
				break
			} else if err != nil {
				return fail(f, r, err)
			}
			if err := bw.Write(&rec); err != nil {
				return fail(f, r, err)
			}
			total++
		}
		r.Close()
		f.Close()
	}
	if err := bw.Close(); err != nil {
		out.Close()
		return total, err
	}
	return total, out.Close()
}
