package hist

import (
	"io"
	"os"

	"parseq/internal/mpi"
	"parseq/internal/partition"
	"parseq/internal/sam"
)

// FromSAMParallel builds a coverage histogram for one reference directly
// from a SAM file with `cores` ranks — the paper's Section IV entry
// point: "the user is able to convert aligned sequence data in SAM/BAM
// format into histogram data … in parallel". The file is partitioned
// with Algorithm 1, each rank accumulates a partial histogram over its
// records, and one mpi.ReduceSum adds the partials element-wise at rank
// 0 (coverage is associative). A nil launch selects the in-process
// mpi.Run; under a distributed launcher rank 0's process returns the
// reduced histogram and every other process returns all-zero bins.
func FromSAMParallel(samPath, rname string, binSize, cores int, launch mpi.Launcher) (*Histogram, error) {
	if launch == nil {
		launch = mpi.Run
	}
	if cores < 1 {
		cores = 1
	}
	f, err := os.Open(samPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	header, dataStart, err := sam.ScanHeader(f)
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
	err = launch(cores, func(c *mpi.Comm) error {
		br, err := partition.SAMForwardMPI(c, f, dataStart, fi.Size())
		if err != nil {
			return err
		}
		local, err := accumulateRange(f, br, rname, refLen, binSize)
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

// accumulateRange tallies one partition's coverage.
func accumulateRange(f io.ReaderAt, br partition.ByteRange, rname string, refLen, binSize int) (*Histogram, error) {
	local, err := New(rname, refLen, binSize)
	if err != nil {
		return nil, err
	}
	scan := sam.NewLineScanner(f, br.Start, br.Len())
	var rec sam.Record
	for {
		// The record is consumed by AddRecord before the scanner reuses
		// the line.
		if _, err := scan.ScanRecord(&rec); err == io.EOF {
			return local, nil
		} else if err != nil {
			return nil, err
		}
		local.AddRecord(&rec)
	}
}
