// Package flagstat computes samtools-flagstat-style summary statistics
// over alignment datasets. It demonstrates that the converter runtime's
// partitioning generalises beyond format conversion: the same Algorithm 1
// byte split drives a parallel analysis whose per-partition results
// reduce associatively.
package flagstat

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"

	"parseq/internal/mpi"
	"parseq/internal/partition"
	"parseq/internal/sam"
)

// Stats are the counters flagstat reports.
type Stats struct {
	Total          int64 // alignment records
	Mapped         int64
	Paired         int64 // paired in sequencing
	ProperlyPaired int64
	Read1          int64
	Read2          int64
	Secondary      int64
	Supplementary  int64
	Duplicates     int64
	QCFail         int64
	MateMapped     int64 // paired, both this and mate mapped
}

// Add accumulates one record.
func (s *Stats) Add(rec *sam.Record) {
	s.tally(rec.Flag, rec.RName != "*")
}

// AddBody accumulates one BAM-encoded record body without decoding it —
// the shard hot loop. Only the flag and reference-ID words are read, so
// the call is equivalent to Add on the decoded record (RName is "*"
// exactly when refID is negative) at none of DecodeRecord's per-field
// allocation cost.
func (s *Stats) AddBody(body []byte) {
	f := sam.Flag(binary.LittleEndian.Uint16(body[14:]))
	refID := int32(binary.LittleEndian.Uint32(body[0:]))
	s.tally(f, refID >= 0)
}

// tally is the shared counting core of Add and AddBody. hasRef reports
// whether the record is placed on a real reference.
func (s *Stats) tally(f sam.Flag, hasRef bool) {
	s.Total++
	if f.Secondary() {
		s.Secondary++
	}
	if f.Supplementary() {
		s.Supplementary++
	}
	if f&sam.FlagDuplicate != 0 {
		s.Duplicates++
	}
	if f&sam.FlagQCFail != 0 {
		s.QCFail++
	}
	if f.Mapped() && hasRef {
		s.Mapped++
	}
	if !f.Paired() {
		return
	}
	s.Paired++
	if f&sam.FlagProperPair != 0 {
		s.ProperlyPaired++
	}
	if f.Read1() {
		s.Read1++
	}
	if f.Read2() {
		s.Read2++
	}
	if f.Mapped() && f&sam.FlagMateUnmapped == 0 {
		s.MateMapped++
	}
}

// Merge folds other into s; merging is the parallel reduction.
func (s *Stats) Merge(other Stats) {
	s.Total += other.Total
	s.Mapped += other.Mapped
	s.Paired += other.Paired
	s.ProperlyPaired += other.ProperlyPaired
	s.Read1 += other.Read1
	s.Read2 += other.Read2
	s.Secondary += other.Secondary
	s.Supplementary += other.Supplementary
	s.Duplicates += other.Duplicates
	s.QCFail += other.QCFail
	s.MateMapped += other.MateMapped
}

// fields serialises the counters for the gather step; order matters.
func (s *Stats) fields() []*int64 {
	return []*int64{
		&s.Total, &s.Mapped, &s.Paired, &s.ProperlyPaired, &s.Read1,
		&s.Read2, &s.Secondary, &s.Supplementary, &s.Duplicates,
		&s.QCFail, &s.MateMapped,
	}
}

func (s *Stats) pack() []byte {
	fs := s.fields()
	out := make([]byte, 0, 8*len(fs))
	for _, f := range fs {
		out = binary.LittleEndian.AppendUint64(out, uint64(*f))
	}
	return out
}

func unpack(data []byte) (Stats, error) {
	var s Stats
	fs := s.fields()
	if len(data) != 8*len(fs) {
		return s, fmt.Errorf("flagstat: payload of %d bytes", len(data))
	}
	for i, f := range fs {
		*f = int64(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return s, nil
}

// percent renders "n (p%)" like samtools flagstat.
func percent(n, total int64) string {
	if total == 0 {
		return fmt.Sprintf("%d (N/A)", n)
	}
	return fmt.Sprintf("%d (%.2f%%)", n, 100*float64(n)/float64(total))
}

// Format renders the report in samtools-flagstat style.
func (s *Stats) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d in total\n", s.Total)
	fmt.Fprintf(&b, "%d secondary\n", s.Secondary)
	fmt.Fprintf(&b, "%d supplementary\n", s.Supplementary)
	fmt.Fprintf(&b, "%d duplicates\n", s.Duplicates)
	fmt.Fprintf(&b, "%d QC-fail\n", s.QCFail)
	fmt.Fprintf(&b, "%s mapped\n", percent(s.Mapped, s.Total))
	fmt.Fprintf(&b, "%d paired in sequencing\n", s.Paired)
	fmt.Fprintf(&b, "%d read1\n", s.Read1)
	fmt.Fprintf(&b, "%d read2\n", s.Read2)
	fmt.Fprintf(&b, "%s properly paired\n", percent(s.ProperlyPaired, s.Paired))
	fmt.Fprintf(&b, "%s with itself and mate mapped\n", percent(s.MateMapped, s.Paired))
	return b.String()
}

// Of accumulates statistics over in-memory records.
func Of(recs []sam.Record) Stats {
	var s Stats
	for i := range recs {
		s.Add(&recs[i])
	}
	return s
}

// SAMFile computes flagstat over a SAM file with `cores` ranks: the text
// is partitioned with Algorithm 1, each rank tallies its partition, and
// rank 0 gathers and merges the partial counters. A nil launch selects
// the in-process mpi.Run; under a distributed launcher the merged Stats
// are complete on rank 0's process only.
func SAMFile(samPath string, cores int, launch mpi.Launcher) (Stats, error) {
	if launch == nil {
		launch = mpi.Run
	}
	if cores < 1 {
		cores = 1
	}
	f, err := os.Open(samPath)
	if err != nil {
		return Stats{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return Stats{}, err
	}
	_, dataStart, err := sam.ScanHeader(f)
	if err != nil {
		return Stats{}, err
	}

	var total Stats
	err = launch(cores, func(c *mpi.Comm) error {
		br, err := partition.SAMForwardMPI(c, f, dataStart, fi.Size())
		if err != nil {
			return err
		}
		local, err := tallyRange(f, br)
		if err != nil {
			return err
		}
		parts, err := c.Gather(0, local.pack())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for _, p := range parts {
				s, err := unpack(p)
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

// tallyRange tallies one text partition.
func tallyRange(f io.ReaderAt, br partition.ByteRange) (Stats, error) {
	var s Stats
	scan := sam.NewLineScanner(f, br.Start, br.Len())
	var rec sam.Record
	for scan.Scan() {
		line := scan.Bytes()
		if len(line) == 0 {
			continue
		}
		// Bytes path: no per-line string copy, kern-scanned fields. The
		// record is consumed by Add before the scanner reuses the buffer.
		if err := sam.ParseRecordIntoBytes(&rec, line); err != nil {
			return s, err
		}
		s.Add(&rec)
	}
	return s, scan.Err()
}
