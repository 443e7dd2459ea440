// Package partition implements the input-partitioning strategies of the
// paper's three converter instances: Algorithm 1's even byte split with
// line-breaker boundary adjustment for SAM text (in both the forward
// variant the paper's system chooses and the backward variant it
// describes as equivalent), and equal-record-count splitting for
// fixed-stride BAMX data.
package partition

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"parseq/internal/mpi"
)

// ByteRange is a half-open [Start, End) span of a file.
type ByteRange struct {
	Start, End int64
}

// Len returns the number of bytes in the range.
func (r ByteRange) Len() int64 { return r.End - r.Start }

// ErrNoLineBreak reports that a partition boundary could not be adjusted
// because no line breaker exists between it and the end of the data.
var ErrNoLineBreak = errors.New("partition: no line breaker found")

// scanChunk is the granularity of the boundary-adjustment scans. SAM
// lines are short (a few hundred bytes), so one chunk almost always
// suffices.
const scanChunk = 64 << 10

// findLineBreakForward returns the absolute offset of the first '\n' at
// or after off, scanning no further than limit.
func findLineBreakForward(r io.ReaderAt, off, limit int64) (int64, error) {
	buf := make([]byte, scanChunk)
	for off < limit {
		n := int64(len(buf))
		if off+n > limit {
			n = limit - off
		}
		read, err := r.ReadAt(buf[:n], off)
		if read > 0 {
			if i := bytes.IndexByte(buf[:read], '\n'); i >= 0 {
				return off + int64(i), nil
			}
			off += int64(read)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	return 0, ErrNoLineBreak
}

// findLineBreakBackward returns the absolute offset of the last '\n'
// strictly before off, scanning no earlier than floor.
func findLineBreakBackward(r io.ReaderAt, off, floor int64) (int64, error) {
	buf := make([]byte, scanChunk)
	for off > floor {
		n := int64(len(buf))
		if off-n < floor {
			n = off - floor
		}
		start := off - n
		read, err := r.ReadAt(buf[:n], start)
		if err != nil && err != io.EOF {
			return 0, err
		}
		if i := bytes.LastIndexByte(buf[:read], '\n'); i >= 0 {
			return start + int64(i), nil
		}
		off = start
	}
	return 0, ErrNoLineBreak
}

// SAMForward evenly splits the [dataStart, dataEnd) region of a SAM file
// into n line-aligned ranges using Algorithm 1's forward variant: each
// partition but the first advances its starting point past the first line
// breaker, and each partition's end is its successor's start. Partitions
// may be empty when n exceeds the number of lines.
func SAMForward(r io.ReaderAt, dataStart, dataEnd int64, n int) ([]ByteRange, error) {
	if n < 1 {
		return nil, fmt.Errorf("partition: invalid partition count %d", n)
	}
	if dataEnd < dataStart {
		return nil, fmt.Errorf("partition: invalid region [%d, %d)", dataStart, dataEnd)
	}
	size := dataEnd - dataStart
	starts := make([]int64, n+1)
	starts[n] = dataEnd
	for i := 0; i < n; i++ {
		lo, _ := mpi.SplitRange(int(size), n, i)
		starts[i] = dataStart + int64(lo)
	}
	// Adjust starting points forward for the last n-1 partitions
	// (Algorithm 1 lines 3-10).
	for i := 1; i < n; i++ {
		if starts[i] <= dataStart {
			continue
		}
		nl, err := findLineBreakForward(r, starts[i], dataEnd)
		if err == ErrNoLineBreak {
			// The boundary sits inside the final line: this partition and
			// all later ones are empty.
			starts[i] = dataEnd
			continue
		}
		if err != nil {
			return nil, err
		}
		starts[i] = nl + 1
		if starts[i] > dataEnd {
			starts[i] = dataEnd
		}
	}
	// Later starts must not precede earlier ones (possible when several
	// initial boundaries land inside one long line).
	for i := 1; i <= n; i++ {
		if starts[i] < starts[i-1] {
			starts[i] = starts[i-1]
		}
	}
	out := make([]ByteRange, n)
	for i := 0; i < n; i++ {
		out[i] = ByteRange{Start: starts[i], End: starts[i+1]}
	}
	return out, nil
}

// SAMBackward is the paper's second, equivalent implementation: each
// partition but the last retreats its ending point to just past the last
// line breaker before the initial boundary.
func SAMBackward(r io.ReaderAt, dataStart, dataEnd int64, n int) ([]ByteRange, error) {
	if n < 1 {
		return nil, fmt.Errorf("partition: invalid partition count %d", n)
	}
	if dataEnd < dataStart {
		return nil, fmt.Errorf("partition: invalid region [%d, %d)", dataStart, dataEnd)
	}
	size := dataEnd - dataStart
	ends := make([]int64, n+1)
	ends[0] = dataStart
	for i := 1; i <= n; i++ {
		_, hi := mpi.SplitRange(int(size), n, i-1)
		ends[i] = dataStart + int64(hi)
	}
	for i := 1; i < n; i++ {
		nl, err := findLineBreakBackward(r, ends[i], dataStart)
		if err == ErrNoLineBreak {
			ends[i] = dataStart
			continue
		}
		if err != nil {
			return nil, err
		}
		ends[i] = nl + 1
	}
	for i := 1; i <= n; i++ {
		if ends[i] < ends[i-1] {
			ends[i] = ends[i-1]
		}
	}
	out := make([]ByteRange, n)
	for i := 0; i < n; i++ {
		out[i] = ByteRange{Start: ends[i], End: ends[i+1]}
	}
	return out, nil
}

// SAMForwardMPI is Algorithm 1 exactly as published: each rank computes
// its own adjusted range, sending its new starting point to its
// predecessor to become that rank's ending point. All ranks return their
// own range; collectively the ranges tile [dataStart, dataEnd).
func SAMForwardMPI(c *mpi.Comm, r io.ReaderAt, dataStart, dataEnd int64) (ByteRange, error) {
	n, rank := c.Size(), c.Rank()
	size := dataEnd - dataStart
	lo, _ := mpi.SplitRange(int(size), n, rank)
	start := dataStart + int64(lo)

	// Lines 3-10: adjust starting points forward for ranks 1..n-1.
	if rank != 0 && start > dataStart {
		nl, err := findLineBreakForward(r, start, dataEnd)
		if err == ErrNoLineBreak {
			start = dataEnd
		} else if err != nil {
			return ByteRange{}, err
		} else {
			start = nl + 1
		}
	}
	// Lines 11-15: rank i+1's start becomes rank i's end.
	end := dataEnd
	if rank != n-1 {
		if err := mpi.SendSlice(c, rank+1, 0, []int64{0}); err != nil { // request (pairs the exchange)
			return ByteRange{}, err
		}
	}
	if rank != 0 {
		if _, err := mpi.RecvSlice[int64](c, rank-1, 0); err != nil {
			return ByteRange{}, err
		}
		if err := mpi.SendSlice(c, rank-1, 1, []int64{start}); err != nil {
			return ByteRange{}, err
		}
	}
	if rank != n-1 {
		v, err := mpi.RecvSlice[int64](c, rank+1, 1)
		if err != nil {
			return ByteRange{}, err
		}
		if len(v) != 1 {
			return ByteRange{}, fmt.Errorf("partition: rank %d sent %d starting points", rank+1, len(v))
		}
		end = v[0]
	}
	// Line 16: global barrier before lengths are used.
	if err := c.Barrier(); err != nil {
		return ByteRange{}, err
	}
	if end < start {
		end = start
	}
	return ByteRange{Start: start, End: end}, nil
}

// Records divides a count of fixed-stride records into n partitions with
// an almost equal number of records each, returning [lo, hi) record-index
// ranges. This is the BAM/BAMX converter's partitioning: random access
// makes the byte layout irrelevant.
func Records(count, n int) [][2]int {
	if n < 1 {
		return nil
	}
	out := make([][2]int, n)
	for i := 0; i < n; i++ {
		lo, hi := mpi.SplitRange(count, n, i)
		out[i] = [2]int{lo, hi}
	}
	return out
}
