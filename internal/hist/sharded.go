package hist

import (
	"encoding/binary"
	"io"

	"parseq/internal/bam"
	"parseq/internal/formats/pamx"
	"parseq/internal/mpi"
	"parseq/internal/sam"
	"parseq/internal/shard"
)

// addBody accumulates one BAM-encoded record body into h without
// decoding it, mirroring AddRecord's skip rules (flag-unmapped,
// unplaced, or off-reference records contribute nothing). refID is the
// histogram reference's ID in the source header.
func (h *Histogram) addBody(body []byte, refID int32) {
	if sam.Flag(binary.LittleEndian.Uint16(body[14:])).Unmapped() {
		return
	}
	id, beg, end := bam.BodySpan(body)
	if id != refID || beg < 0 {
		return
	}
	h.AddInterval(int32(beg)+1, int32(end), 1)
}

// FromProvider builds the coverage histogram for one reference
// region-parallel over an indexed provider: rank 0 cuts the reference
// into byte-balanced shards and scatters descriptor groups, each rank
// drains its group through local workers on the zero-decode body path,
// per-shard partial histograms fold in shard order, and one
// mpi.ReduceSum adds the ranks' partials element-wise at rank 0 (every
// contribution is an integer bin increment, so float64 sums are exact
// and the merged bins are identical to a sequential scan at any shard
// count, worker count or transport). Under a distributed launcher rank
// 0's process returns the reduced histogram and every other process
// returns all-zero bins.
func FromProvider(p shard.Provider, rname string, binSize int, cfg shard.Config) (*Histogram, error) {
	// Coverage needs the alignment span — the fixed prefix plus the
	// CIGAR walk bam.BodySpan performs — and nothing else; over a
	// columnar provider everything heavier stays compressed on disk.
	shard.Project(p, pamx.FieldCoord|pamx.FieldCigar)
	header, err := p.Header()
	if err != nil {
		return nil, err
	}
	refID := header.RefID(rname)
	if refID < 0 {
		return nil, &UnknownReferenceError{RName: rname}
	}
	refLen := header.RefByID(refID).Length

	total, err := New(rname, refLen, binSize)
	if err != nil {
		return nil, err
	}
	launch, ranks := cfg.Launcher()
	err = launch(ranks, func(c *mpi.Comm) error {
		local, err := shard.Distribute(c, p, shard.Options{
			TargetShards: cfg.ResolveTargetShards(c.Size()),
			Refs:         []string{rname},
		})
		if err != nil {
			return err
		}
		per := make([]*Histogram, len(local))
		err = shard.ForEach(p, local, cfg.Workers, func(i int, sh shard.Shard, rr shard.RecordReader) error {
			lh, err := New(rname, refLen, binSize)
			if err != nil {
				return err
			}
			for {
				body, err := rr.NextBody()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				lh.addBody(body, int32(refID))
			}
			per[i] = lh
			return nil
		})
		if err != nil {
			return err
		}
		sum, err := New(rname, refLen, binSize)
		if err != nil {
			return err
		}
		for _, lh := range per {
			if lh == nil {
				continue
			}
			for i := range lh.Bins {
				sum.Bins[i] += lh.Bins[i]
			}
		}
		return total.reduce(c, sum.Bins)
	})
	if err != nil {
		return nil, err
	}
	return total, nil
}
