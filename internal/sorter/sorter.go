// Package sorter coordinate-sorts alignment datasets, the precondition
// for every index in this repository (BAI binning, BAIX starting
// positions) and for the paper's sorted 117 GB BAM input. The sort is an
// external merge sort in the samtools mould over encoded BAM records:
// the input streams into bounded chunks of records encoded by
// bam.EncodeRecord, chunks sort in parallel ranks and spill as raw
// sorted runs, and a k-way merge writes the output: BAM, or BAMX or PAMX
// as its extension names (shard.Create). Unmapped records sort after all
// mapped ones, as samtools does.
package sorter

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"parseq/internal/bam"
	"parseq/internal/obs"
	"parseq/internal/sam"
	"parseq/internal/shard"
)

// Options tunes the sort.
type Options struct {
	// ChunkRecords is the number of records sorted in memory per run
	// (default 100k ≈ tens of MB for short reads).
	ChunkRecords int
	// Cores sorts and spills chunks with this many parallel workers.
	Cores int
	// TmpDir receives the temporary runs; "" uses the OS default.
	TmpDir string
	// CodecWorkers is the BGZF codec worker count of the two BGZF
	// streams a sort has, the BAM input's inflate and the output's
	// deflate (runs are raw, with no codec), passed to package bgzf,
	// whose rule places the blocks. Orthogonal to Cores, exactly as in
	// the converter runtime.
	CodecWorkers int
}

// normalize resolves the defaults.
func (o *Options) normalize() {
	if o.ChunkRecords < 1 {
		o.ChunkRecords = 100_000
	}
	if o.Cores < 1 {
		o.Cores = 1
	}
}

// key is a record's coordinate sort key: the reference ID, past every
// reference for an unmapped record, and the SAM POS.
type key struct {
	refID int32
	pos   int32
}

// keyOf reads the key of one encoded record (block_size prefix
// included) from its fixed fields.
func keyOf(rec []byte) key {
	refID := int32(binary.LittleEndian.Uint32(rec[4:]))
	// The 1-based POS, wrapping in int32 as a decoded record's does, so
	// the order is the one sorting decoded records gives.
	pos := int32(binary.LittleEndian.Uint32(rec[8:])) + 1
	if refID < 0 || sam.Flag(binary.LittleEndian.Uint16(rec[18:])).Unmapped() {
		refID = math.MaxInt32
	}
	return key{refID: refID, pos: pos}
}

func (k key) less(other key) bool {
	if k.refID != other.refID {
		return k.refID < other.refID
	}
	return k.pos < other.pos
}

// chunk is a run in memory: encoded records laid end to end in buf,
// record i starting at offs[i].
type chunk struct {
	buf  []byte
	offs []int
}

func (c *chunk) record(i int) []byte {
	off := c.offs[i]
	return c.buf[off : off+4+int(binary.LittleEndian.Uint32(c.buf[off:]))]
}

// sort orders the records by key, stably, so equal positions keep input
// order.
func (c *chunk) sort() {
	sort.SliceStable(c.offs, func(i, j int) bool {
		return keyOf(c.buf[c.offs[i]:]).less(keyOf(c.buf[c.offs[j]:]))
	})
}

// spill sorts the chunk and writes its records to path, raw: a run is a
// private temporary file, so it needs no codec.
func (c *chunk) spill(path string) error {
	c.sort()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	for i := range c.offs {
		w.Write(c.record(i)) // sticky: Flush reports the first error
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run is one spilled chunk and the number of records it must hold.
type run struct {
	path string
	n    int
}

// feedFunc hands every input record, encoded (block_size prefix
// included), to add in input order; add copies it.
type feedFunc func(add func(rec []byte)) error

// SortSAMToBAM sorts a SAM file into a coordinate-sorted BAM file (a
// .bamx or .pamx outPath: that container). The batch line engine reads
// the whole alignment section as one share (sam.AdaptiveWorkers(1)
// workers encode) and its ordered drain feeds the chunks.
func SortSAMToBAM(samPath, outPath string, opts Options) (int64, error) {
	opts.normalize()
	src, err := sam.Open(samPath)
	if err != nil {
		return 0, err
	}
	defer src.Close()
	h := src.Header
	encode := func(dst []byte, rec *sam.Record) ([]byte, error) { return bam.EncodeRecord(dst, rec, h) }
	feed := func(add func([]byte)) error {
		return src.Batches(src.All(), sam.AdaptiveWorkers(1), func() sam.Visit { return encode }, func(b *sam.Batch) error {
			for recs := b.Out; len(recs) > 0; {
				n := 4 + int(binary.LittleEndian.Uint32(recs))
				add(recs[:n])
				recs = recs[n:]
			}
			return nil
		})
	}
	return sortInto(h, feed, outPath, opts)
}

// SortBAM sorts a BAM file into a coordinate-sorted BAM file (a .bamx or
// .pamx outPath: that container). Every record is decoded and
// re-encoded, so a malformed one is refused as the decoder refuses it.
func SortBAM(bamPath, outPath string, opts Options) (int64, error) {
	opts.normalize()
	f, err := os.Open(bamPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br, err := bam.NewReader(f, bam.WithCodecWorkers(opts.CodecWorkers))
	if err != nil {
		return 0, err
	}
	defer br.Close()
	feed := func(add func([]byte)) error {
		var rec sam.Record
		var buf []byte
		for {
			err := br.ReadInto(&rec)
			if err == io.EOF {
				return nil
			}
			if err == nil {
				buf, err = bam.EncodeRecord(buf[:0], &rec, br.Header())
			}
			if err != nil {
				return err
			}
			add(buf)
		}
	}
	return sortInto(br.Header(), feed, outPath, opts)
}

// sortInto drives the external merge sort over normalized opts.
func sortInto(in *sam.Header, feed feedFunc, outPath string, opts Options) (int64, error) {
	header := in.Clone()
	header.SortOrder = sam.SortCoordinate

	tmpDir, err := os.MkdirTemp(opts.TmpDir, "parseq-sort-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmpDir)

	reg := obs.Default()
	ph := obs.NewPhaseSet(reg)
	spill := ph.Start(0, "sort.spill")

	// Phase 1: fill chunks, sort and spill them in parallel workers.
	type job struct {
		c    *chunk
		path string
	}
	// One queued chunk per worker: the reader runs at most Cores chunks
	// ahead of the spills, which bounds the chunks held in memory.
	jobs := make(chan job, opts.Cores)
	workerErr := make([]error, opts.Cores)
	var wg sync.WaitGroup
	for w := range opts.Cores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// After a failure keep draining, so the producer never blocks.
			for j := range jobs {
				if workerErr[w] == nil {
					workerErr[w] = j.c.spill(j.path)
				}
			}
		}()
	}

	var runs []run
	var total int64
	c := &chunk{}
	queue := func() {
		r := run{path: filepath.Join(tmpDir, fmt.Sprintf("run%06d", len(runs))), n: len(c.offs)}
		runs = append(runs, r)
		jobs <- job{c: c, path: r.path}
		c = &chunk{buf: make([]byte, 0, cap(c.buf)), offs: make([]int, 0, cap(c.offs))}
	}
	readErr := feed(func(rec []byte) {
		c.offs = append(c.offs, len(c.buf))
		c.buf = append(c.buf, rec...)
		total++
		if len(c.offs) == opts.ChunkRecords {
			queue()
		}
	})
	if readErr == nil && len(c.offs) > 0 {
		queue()
	}
	close(jobs)
	wg.Wait()
	if readErr != nil {
		return 0, readErr
	}
	for _, err := range workerErr {
		if err != nil {
			return 0, err
		}
	}
	spill.End()
	reg.Counter("sorter.records").Add(total)
	reg.Counter("sorter.runs").Add(int64(len(runs)))

	// Phase 2: k-way merge of the sorted runs.
	merge := ph.Start(0, "sort.merge")
	if err := mergeRuns(runs, header, outPath, opts.CodecWorkers); err != nil {
		return 0, err
	}
	merge.End()
	return total, nil
}

// runReader is one run in the merge: its current record and key.
type runReader struct {
	run
	idx int // the run's place in input order, which breaks key ties
	r   *bam.RunReader
	rec []byte // block_size prefix included
	k   key
}

// next reads the run's next record, reporting false once all n are read.
func (rr *runReader) next() (bool, error) {
	rec, err := rr.r.Next()
	if err == io.EOF {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("sorter: run %s: %w", rr.path, err)
	}
	rr.rec, rr.k = rec, keyOf(rec)
	return true, nil
}

// mergeHeap orders the runs by their current record.
type mergeHeap []*runReader

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].k != h[j].k {
		return h[i].k.less(h[j].k)
	}
	// Equal keys: earlier run wins, keeping the sort stable.
	return h[i].idx < h[j].idx
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(*runReader)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// mergeRuns streams the runs through a heap into the output, whose
// container shard.Create picks by extension: BAM, BAMX or PAMX. A failed
// merge leaves no outPath behind: a truncated file there could pass for
// a sorted one in a later run.
func mergeRuns(runs []run, header *sam.Header, outPath string, codecWorkers int) error {
	out, err := shard.Create(outPath, header, shard.WithCodecWorkers(codecWorkers))
	if err != nil {
		return err
	}
	defer out.Abort()
	h := make(mergeHeap, 0, len(runs))
	for i, r := range runs {
		f, err := os.Open(r.path)
		if err != nil {
			return err
		}
		defer f.Close()
		rr := &runReader{run: r, idx: i, r: bam.NewRunReader(f, int64(r.n))}
		if ok, err := rr.next(); err != nil {
			return err
		} else if ok {
			h = append(h, rr)
		}
	}
	heap.Init(&h)
	for len(h) > 0 {
		rr := h[0]
		if err := out.WriteBody(rr.rec[4:]); err != nil {
			return err
		}
		if ok, err := rr.next(); err != nil {
			return err
		} else if ok {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out.Close()
}
