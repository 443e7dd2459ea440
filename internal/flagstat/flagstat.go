// Package flagstat computes samtools-flagstat-style summary statistics
// over alignment datasets. It demonstrates that the converter runtime's
// partitioning generalises beyond format conversion: the same Algorithm 1
// byte split drives a parallel analysis whose per-partition results
// reduce associatively.
package flagstat

import (
	"encoding/binary"
	"fmt"
	"strings"

	"parseq/internal/mpi"
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
	o := other.fields()
	for i, f := range s.fields() {
		*f += *o[i]
	}
}

// fields lists the counters in one fixed order: Merge's and the
// cross-rank sum's.
func (s *Stats) fields() []*int64 {
	return []*int64{
		&s.Total, &s.Mapped, &s.Paired, &s.ProperlyPaired, &s.Read1,
		&s.Read2, &s.Secondary, &s.Supplementary, &s.Duplicates,
		&s.QCFail, &s.MateMapped,
	}
}

// reduce sets rank 0's total to the sum of every rank's local
// counters; the other ranks leave total as it is.
func reduce(c *mpi.Comm, local Stats, total *Stats) error {
	fs := local.fields()
	v := make([]int64, len(fs))
	for i, f := range fs {
		v[i] = *f
	}
	sum, err := mpi.ReduceSum(c, 0, v)
	if err != nil || c.Rank() != 0 {
		return err
	}
	for i, f := range total.fields() {
		*f = sum[i]
	}
	return nil
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
// is partitioned with Algorithm 1, each rank tallies its partition
// through the batch line engine (sam.AdaptiveWorkers visitors, each with
// its own counters, summed when the share is read — integer sums, so the
// result does not depend on the worker count), and one mpi.ReduceSum
// adds the partial counters at rank 0. A nil launch selects the
// in-process mpi.Run; under a distributed launcher rank 0's process
// returns the summed Stats and every other process returns zero Stats.
func SAMFile(samPath string, cores int, launch mpi.Launcher) (Stats, error) {
	if launch == nil {
		launch = mpi.Run
	}
	if cores < 1 {
		cores = 1
	}
	src, err := sam.Open(samPath)
	if err != nil {
		return Stats{}, err
	}
	defer src.Close()

	var total Stats
	err = launch(cores, func(c *mpi.Comm) error {
		br, err := src.Partition(c)
		if err != nil {
			return err
		}
		var parts []*Stats
		newVisit := func() sam.Visit {
			s := &Stats{}
			parts = append(parts, s)
			return func(dst []byte, rec *sam.Record) ([]byte, error) {
				s.Add(rec)
				return dst, nil
			}
		}
		drain := func(*sam.Batch) error { return nil }
		if err := src.Batches(br, sam.AdaptiveWorkers(cores), newVisit, drain); err != nil {
			return err
		}
		var local Stats
		for _, s := range parts {
			local.Merge(*s)
		}
		return reduce(c, local, &total)
	})
	return total, err
}
