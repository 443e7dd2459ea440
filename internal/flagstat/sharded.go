package flagstat

import (
	"io"

	"parseq/internal/formats/pamx"
	"parseq/internal/mpi"
	"parseq/internal/shard"
)

// Sharded computes flagstat region-parallel over an indexed provider:
// rank 0 generates byte-balanced genomic shards and scatters contiguous
// descriptor groups across the world; each rank drains its group
// through local workers on independent seek-and-scan readers (the
// zero-decode body path); per-shard tallies fold in shard order and one
// mpi.ReduceSum adds the ranks' tallies at rank 0. The start-within
// shard contract makes the merged counters identical to a sequential
// scan at any shard count, worker count or transport. Under a
// distributed launcher rank 0's process returns the summed Stats and
// every other process returns zero Stats.
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
		return reduce(c, sum, &total)
	})
	return total, err
}
