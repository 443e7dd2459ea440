package hist

import (
	"encoding/binary"

	"parseq/internal/mpi"
	"parseq/internal/sam"
)

// FromSAMParallel builds a coverage histogram for one reference directly
// from a SAM file with `cores` ranks — the paper's Section IV entry
// point: "the user is able to convert aligned sequence data in SAM/BAM
// format into histogram data … in parallel". The file is partitioned
// with Algorithm 1, each rank accumulates a partial histogram over its
// records, and one mpi.ReduceSum adds the partials element-wise at rank
// 0 (coverage is associative). A rank reads its share through the batch
// line engine: the workers append each on-reference record's span to
// the batch's output and the ordered drain adds the spans to the rank's
// one bin array. A nil launch selects the in-process mpi.Run; under a
// distributed launcher rank 0's process returns the reduced histogram
// and every other process returns all-zero bins.
func FromSAMParallel(samPath, rname string, binSize, cores int, launch mpi.Launcher) (*Histogram, error) {
	if launch == nil {
		launch = mpi.Run
	}
	if cores < 1 {
		cores = 1
	}
	src, err := sam.Open(samPath)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	refID := src.Header.RefID(rname)
	if refID < 0 {
		return nil, &UnknownReferenceError{RName: rname}
	}
	refLen := src.Header.RefByID(refID).Length

	total, err := New(rname, refLen, binSize)
	if err != nil {
		return nil, err
	}
	// A span is two little-endian int32s, SAM's 1-based inclusive POS
	// and end.
	visit := func(dst []byte, rec *sam.Record) ([]byte, error) {
		if rec.Unmapped() || rec.RName != rname {
			return dst, nil
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.Pos))
		return binary.LittleEndian.AppendUint32(dst, uint32(rec.End())), nil
	}
	err = launch(cores, func(c *mpi.Comm) error {
		br, err := src.Partition(c)
		if err != nil {
			return err
		}
		local, err := New(rname, refLen, binSize)
		if err != nil {
			return err
		}
		err = src.Batches(br, sam.AdaptiveWorkers(cores), func() sam.Visit { return visit }, func(b *sam.Batch) error {
			for sp := b.Out; len(sp) > 0; sp = sp[8:] {
				local.AddInterval(int32(binary.LittleEndian.Uint32(sp)), int32(binary.LittleEndian.Uint32(sp[4:])), 1)
			}
			return nil
		})
		if err != nil {
			return err
		}
		return total.reduce(c, local.Bins)
	})
	if err != nil {
		return nil, err
	}
	return total, nil
}

// reduce sets rank 0's bins to the element-wise sum of every rank's
// local bins; the other ranks leave h as it is.
func (h *Histogram) reduce(c *mpi.Comm, local []float64) error {
	sum, err := mpi.ReduceSum(c, 0, local)
	if err == nil && c.Rank() == 0 {
		copy(h.Bins, sum)
	}
	return err
}

// UnknownReferenceError reports a reference name missing from the header.
type UnknownReferenceError struct{ RName string }

func (e *UnknownReferenceError) Error() string {
	return "hist: reference " + e.RName + " not in header"
}
