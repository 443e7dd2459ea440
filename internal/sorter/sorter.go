// Package sorter coordinate-sorts alignment datasets, the precondition
// for every index in this repository (BAI binning, BAIX starting
// positions) and for the paper's sorted 117 GB BAM input. The sort is an
// external merge sort in the samtools mould: the input streams into
// bounded in-memory chunks, chunks sort in parallel ranks and spill as
// sorted temporary runs, and a k-way merge produces the output. Unmapped
// records sort after all mapped ones, as samtools does.
package sorter

import (
	"container/heap"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"parseq/internal/bam"
	"parseq/internal/bgzf"
	"parseq/internal/obs"
	"parseq/internal/sam"
)

// Options tunes the sort.
type Options struct {
	// ChunkRecords is the number of records sorted in memory per run
	// (default 100k ≈ tens of MB for short reads).
	ChunkRecords int
	// Cores sorts chunks with this many parallel workers.
	Cores int
	// TmpDir receives the temporary runs; "" uses the OS default.
	TmpDir string
	// CodecWorkers is the BGZF codec/decoder worker budget. The input
	// reader gets the full budget — codec workers plus, for BAM input,
	// the parallel record decoder (bam.ParallelScanner) — while spilled
	// runs and merge readers share it, clamped per stream so many runs
	// do not multiply the goroutine count. 0 selects the adaptive
	// default (bgzf.AutoWorkers) and — as in the converter's shard
	// writers — attaches the short-lived spill and merge writers to the
	// process-wide bgzf.SharedPool, so many parallel spill workers keep
	// the codec goroutine count at the pool's throughput-sized level
	// rather than Cores × per-stream; an explicit count keeps private
	// per-stream pools, and 1 forces the sequential paths. Orthogonal
	// to Cores, exactly as in the converter runtime.
	CodecWorkers int
}

// normalize resolves the defaults and reports whether CodecWorkers was
// left adaptive, which puts the spill and merge writers on the shared
// deflate pool.
func (o *Options) normalize() (sharedCodec bool) {
	if o.ChunkRecords < 1 {
		o.ChunkRecords = 100_000
	}
	if o.Cores < 1 {
		o.Cores = 1
	}
	if o.CodecWorkers <= 0 {
		o.CodecWorkers = bgzf.AutoWorkers()
		sharedCodec = true
	}
	return sharedCodec
}

// perStreamWorkers divides one codec worker budget across streams that
// are open simultaneously (parallel spill writers, merge readers).
func perStreamWorkers(budget, streams int) int {
	if streams < 1 {
		streams = 1
	}
	per := budget / streams
	if per < 1 {
		per = 1
	}
	return per
}

// key is a record's coordinate sort key. Unmapped records (refID -1) map
// past every reference.
type key struct {
	refID int32
	pos   int32
}

func keyOf(h *sam.Header, rec *sam.Record) key {
	id := h.RefID(rec.RName)
	if id < 0 || rec.Unmapped() {
		return key{refID: 1<<31 - 1, pos: rec.Pos}
	}
	return key{refID: int32(id), pos: rec.Pos}
}

func (k key) less(other key) bool {
	if k.refID != other.refID {
		return k.refID < other.refID
	}
	return k.pos < other.pos
}

// SortRecords coordinate-sorts records in place (stable, so equal
// positions keep input order).
func SortRecords(h *sam.Header, recs []sam.Record) {
	sort.SliceStable(recs, func(i, j int) bool {
		return keyOf(h, &recs[i]).less(keyOf(h, &recs[j]))
	})
}

// recordSource abstracts SAM/BAM inputs for the sorter.
type recordSource interface {
	Header() *sam.Header
	ReadInto(*sam.Record) error
}

// SortSAMToBAM sorts a SAM file into a coordinate-sorted BAM file.
func SortSAMToBAM(samPath, outPath string, opts Options) (int64, error) {
	shared := opts.normalize()
	in, err := os.Open(samPath)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	src, err := sam.NewReader(in)
	if err != nil {
		return 0, err
	}
	return sortToBAM(src, outPath, opts, shared)
}

// SortBAM sorts a BAM file into a coordinate-sorted BAM file. With more
// than one codec worker the input decodes through bam.ParallelScanner —
// record order and output bytes stay identical to the sequential path.
func SortBAM(bamPath, outPath string, opts Options) (int64, error) {
	shared := opts.normalize()
	in, err := os.Open(bamPath)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	src, err := bam.NewReader(in, bam.WithCodecWorkers(opts.CodecWorkers))
	if err != nil {
		return 0, err
	}
	defer src.Close()
	if opts.CodecWorkers > 1 {
		sc := bam.NewParallelScanner(src, opts.CodecWorkers)
		defer sc.Close() // runs before src.Close: the scanner owns the stream
		return sortToBAM(sc, outPath, opts, shared)
	}
	return sortToBAM(src, outPath, opts, shared)
}

// sortToBAM drives the external merge sort over normalized opts.
func sortToBAM(src recordSource, outPath string, opts Options, sharedCodec bool) (int64, error) {
	header := src.Header().Clone()
	header.SortOrder = sam.SortCoordinate

	tmpDir, err := os.MkdirTemp(opts.TmpDir, "parseq-sort-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmpDir)

	reg := obs.Default()
	ph := obs.NewPhaseSet(reg)
	spill := ph.Start(0, "sort.spill")

	// Phase 1: read chunks, sort them in parallel workers, spill runs.
	type job struct {
		idx  int
		recs []sam.Record
	}
	jobs := make(chan job, opts.Cores)
	runPaths := make([]string, 0, 8)
	var runMu sync.Mutex
	var wg sync.WaitGroup
	workerErr := make([]error, opts.Cores)
	spillWorkers := perStreamWorkers(opts.CodecWorkers, opts.Cores)
	for w := 0; w < opts.Cores; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := range jobs {
				SortRecords(header, j.recs)
				path := filepath.Join(tmpDir, fmt.Sprintf("run%06d.bam", j.idx))
				if err := writeRun(path, header, j.recs, spillWorkers, sharedCodec); err != nil {
					workerErr[worker] = err
					// Drain remaining jobs so the producer never blocks.
					continue
				}
				runMu.Lock()
				runPaths = append(runPaths, path)
				runMu.Unlock()
			}
		}(w)
	}

	var total int64
	chunk := make([]sam.Record, 0, opts.ChunkRecords)
	chunkIdx := 0
	var readErr error
	for {
		var rec sam.Record
		err := src.ReadInto(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = err
			break
		}
		total++
		chunk = append(chunk, rec)
		if len(chunk) == opts.ChunkRecords {
			jobs <- job{idx: chunkIdx, recs: chunk}
			chunkIdx++
			chunk = make([]sam.Record, 0, opts.ChunkRecords)
		}
	}
	if len(chunk) > 0 && readErr == nil {
		jobs <- job{idx: chunkIdx, recs: chunk}
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
	reg.Counter("sorter.runs").Add(int64(len(runPaths)))

	// Phase 2: k-way merge of the sorted runs.
	merge := ph.Start(0, "sort.merge")
	sort.Strings(runPaths)
	if err := mergeRuns(runPaths, header, outPath, opts.CodecWorkers, sharedCodec); err != nil {
		return 0, err
	}
	merge.End()
	return total, nil
}

// writeRun spills one sorted chunk as a BAM run.
func writeRun(path string, h *sam.Header, recs []sam.Record, codecWorkers int, shared bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	wopt := bam.WithCodecWorkers(codecWorkers)
	if shared {
		wopt = bam.WithSharedCodec()
	}
	w, err := bam.NewWriter(f, h, wopt)
	if err != nil {
		f.Close()
		return err
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mergeItem is one run's head record in the merge heap.
type mergeItem struct {
	rec sam.Record
	k   key
	src int
}

type mergeHeap struct {
	items []mergeItem
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.k != b.k {
		return a.k.less(b.k)
	}
	// Equal keys: earlier run wins, keeping the sort stable.
	return a.src < b.src
}
func (h *mergeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x interface{}) { h.items = append(h.items, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

// mergeRuns streams the runs through a heap into the output BAM. A
// failed merge leaves no outPath behind: a truncated file there could
// pass for a sorted BAM in a later run.
func mergeRuns(runPaths []string, header *sam.Header, outPath string, codecWorkers int, shared bool) (err error) {
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(outPath)
		}
	}()
	wopt := bam.WithCodecWorkers(codecWorkers)
	if shared {
		wopt = bam.WithSharedCodec()
	}
	w, err := bam.NewWriter(out, header, wopt)
	if err != nil {
		return err
	}
	// Closed on every path, before out: an abandoned writer would strand
	// its codec workers.
	defer func() {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}()
	readers := make([]*bam.Reader, len(runPaths))
	files := make([]*os.File, len(runPaths))
	defer func() {
		for i, f := range files {
			if readers[i] != nil {
				readers[i].Close()
			}
			if f != nil {
				f.Close()
			}
		}
	}()
	h := &mergeHeap{}
	// The merge keeps every run open at once; clamp the per-run codec
	// worker count so k runs never cost k × budget goroutines.
	runWorkers := perStreamWorkers(codecWorkers, len(runPaths))
	for i, path := range runPaths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		files[i] = f
		r, err := bam.NewReader(f, bam.WithCodecWorkers(runWorkers))
		if err != nil {
			return err
		}
		readers[i] = r
		var rec sam.Record
		if err := r.ReadInto(&rec); err == io.EOF {
			continue
		} else if err != nil {
			return err
		}
		heap.Push(h, mergeItem{rec: rec, k: keyOf(header, &rec), src: i})
	}
	for h.Len() > 0 {
		item := heap.Pop(h).(mergeItem)
		if err := w.Write(&item.rec); err != nil {
			return err
		}
		var rec sam.Record
		err := readers[item.src].ReadInto(&rec)
		if err == io.EOF {
			continue
		}
		if err != nil {
			return err
		}
		heap.Push(h, mergeItem{rec: rec, k: keyOf(header, &rec), src: item.src})
	}
	return nil
}
