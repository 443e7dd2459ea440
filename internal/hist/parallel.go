package hist

import (
	"io"
	"math"
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
// records, and the partials reduce by element-wise addition (coverage is
// associative). A nil launch selects the in-process mpi.Run; under a
// distributed launcher the reduced histogram is complete on rank 0's
// process only — other ranks receive their unreduced local total.
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
		parts, err := c.Gather(0, packBins(local.Bins))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for _, p := range parts {
				bins, err := unpackBins(p)
				if err != nil {
					return err
				}
				for i := range bins {
					total.Bins[i] += bins[i]
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return total, nil
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
	for off := br.Start; scan.Scan(); off = br.Start + scan.Pos() {
		line := scan.Bytes()
		if len(line) == 0 {
			continue
		}
		// The record is consumed by AddRecord before the scanner reuses
		// the buffer.
		if err := sam.ParseRecordIntoBytes(&rec, line); err != nil {
			return nil, sam.LineError(off, err)
		}
		local.AddRecord(&rec)
	}
	return local, scan.Err()
}

func packBins(bins []float64) []byte {
	out := make([]byte, 8*len(bins))
	for i, v := range bins {
		u := math.Float64bits(v)
		for b := 0; b < 8; b++ {
			out[8*i+b] = byte(u >> (8 * b))
		}
	}
	return out
}

func unpackBins(data []byte) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, io.ErrUnexpectedEOF
	}
	out := make([]float64, len(data)/8)
	for i := range out {
		var u uint64
		for b := 0; b < 8; b++ {
			u |= uint64(data[8*i+b]) << (8 * b)
		}
		out[i] = math.Float64frombits(u)
	}
	return out, nil
}
