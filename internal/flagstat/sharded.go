package flagstat

import (
	"io"
	"os"

	"parseq/internal/bam"
	"parseq/internal/formats/pamx"
	"parseq/internal/mpi"
	"parseq/internal/shard"
)

// BAMFile computes flagstat over a BAM file with one sequential
// whole-file scan — the single-stream reference path the sharded driver
// is measured against, and the fallback for unindexed inputs. The loop
// stays on the undecoded body path.
func BAMFile(path string) (Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return Stats{}, err
	}
	defer f.Close()
	br, err := bam.NewReader(f)
	if err != nil {
		return Stats{}, err
	}
	defer br.Close()
	var s Stats
	for {
		body, err := br.ReadBody()
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return s, err
		}
		s.AddBody(body)
	}
}

// Sharded computes flagstat region-parallel over an indexed provider:
// rank 0 generates byte-balanced genomic shards and scatters contiguous
// descriptor groups across the world; each rank drains its group
// through local workers on independent seek-and-scan readers (the
// zero-decode body path); per-shard tallies fold in shard order and
// gather to rank 0. The start-within shard contract makes the merged
// counters identical to a sequential scan at any shard count, worker
// count or transport. Under a distributed launcher the result is
// complete on rank 0's process only.
func Sharded(p shard.Provider, cfg shard.Config) (Stats, error) {
	// Flagstat reads only the FLAG word and mate refs of the fixed
	// prefix: over a columnar provider, project the coordinate column
	// and skip the name/CIGAR/sequence/quality/aux bulk entirely.
	shard.Project(p, pamx.FieldFlag)
	launch, ranks := cfg.Launcher()
	var total Stats
	err := launch(ranks, func(c *mpi.Comm) error {
		local, err := shard.Distribute(c, p, shard.Options{
			TargetShards: cfg.ResolveTargetShards(c.Size()),
		})
		if err != nil {
			return err
		}
		per := make([]Stats, len(local))
		err = shard.ForEach(p, local, cfg.Workers, func(i int, sh shard.Shard, rr shard.RecordReader) error {
			for {
				body, err := rr.NextBody()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				per[i].AddBody(body)
			}
		})
		if err != nil {
			return err
		}
		var sum Stats
		for i := range per {
			sum.Merge(per[i])
		}
		parts, err := c.Gather(0, sum.pack())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for _, pt := range parts {
				s, err := unpack(pt)
				if err != nil {
					return err
				}
				total.Merge(s)
			}
		}
		return nil
	})
	return total, err
}
