package sorter

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"parseq/internal/bam"
	"parseq/internal/sam"
	"parseq/internal/simdata"
)

// unsortedDataset writes an unsorted dataset as SAM and BAM files.
func unsortedDataset(t testing.TB, n int) (samPath, bamPath string, d *simdata.Dataset) {
	t.Helper()
	cfg := simdata.DefaultConfig(n)
	cfg.Sorted = false
	d = simdata.Generate(cfg)
	dir := t.TempDir()
	samPath = filepath.Join(dir, "u.sam")
	bamPath = filepath.Join(dir, "u.bam")
	sf, err := os.Create(samPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteSAM(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	bf, err := os.Create(bamPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBAM(bf); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	return samPath, bamPath, d
}

// checkSorted validates coordinate order and content equality against the
// reference records.
func checkSorted(t *testing.T, outPath string, d *simdata.Dataset, wantCount int) {
	t.Helper()
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := bam.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().SortOrder != sam.SortCoordinate {
		t.Errorf("output SortOrder = %q", r.Header().SortOrder)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != wantCount {
		t.Fatalf("output records = %d, want %d", len(recs), wantCount)
	}
	// Order check.
	lastRef, lastPos := -1, int32(0)
	seenUnmapped := false
	for i := range recs {
		ref := r.Header().RefID(recs[i].RName)
		if ref < 0 {
			seenUnmapped = true
			continue
		}
		if seenUnmapped {
			t.Fatalf("mapped record %d after unmapped block", i)
		}
		if ref < lastRef || (ref == lastRef && recs[i].Pos < lastPos) {
			t.Fatalf("record %d out of order: ref %d pos %d after ref %d pos %d",
				i, ref, recs[i].Pos, lastRef, lastPos)
		}
		lastRef, lastPos = ref, recs[i].Pos
	}
	// Content check: the sorted output is a permutation of the input.
	want := map[string]int{}
	for i := range d.Records {
		want[d.Records[i].String()]++
	}
	for i := range recs {
		if want[recs[i].String()] == 0 {
			t.Fatalf("record %d not in input (or duplicated): %s", i, recs[i].QName)
		}
		want[recs[i].String()]--
	}
}

// TestReaderLineLimit shrinks the line limit and requires SortSAMToBAM
// to accept a line one byte under the limit and to refuse the next,
// over-limit line with the shared error carrying that line's file
// offset, leaving no output.
func TestReaderLineLimit(t *testing.T) {
	old := sam.MaxLineBytes
	sam.MaxLineBytes = 512 << 10
	defer func() { sam.MaxLineBytes = old }()

	hdr := "@SQ\tSN:chr1\tLN:1000\n"
	good := "ok1\t0\tchr1\t1\t30\t4M\t*\t0\t0\tACGT\tIIII\n"
	stem := "edge\t0\tchr1\t5\t30\t*\t*\t0\t0\t"
	edge := stem + strings.Repeat("C", sam.MaxLineBytes-1-len(stem)-2) + "\t*\n"
	long := "toolong\t0\tchr1\t9\t30\t*\t*\t0\t0\t" +
		strings.Repeat("C", sam.MaxLineBytes+1000) + "\t*\n"
	dir := t.TempDir()
	path := filepath.Join(dir, "cap.sam")
	if err := os.WriteFile(path, []byte(hdr+good+edge+long), 0o644); err != nil {
		t.Fatal(err)
	}
	want := sam.LineTooLongError(int64(len(hdr) + len(good) + len(edge))).Error()

	out := filepath.Join(dir, "s.bam")
	_, err := SortSAMToBAM(path, out, Options{})
	if !errors.Is(err, bufio.ErrTooLong) || err.Error() != want {
		t.Errorf("SortSAMToBAM error = %v, want %q", err, want)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("failed sort left %s behind (stat: %v)", out, err)
	}

	// Without the long line, the edge line sorts.
	if err := os.WriteFile(path, []byte(hdr+good+edge), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := SortSAMToBAM(path, out, Options{}); err != nil || n != 2 {
		t.Errorf("SortSAMToBAM = %d records, %v; want 2", n, err)
	}
}

// TestSortSAMLines: the sorter reads SAM text as the other line readers
// do. Blank lines are skipped, and a malformed line is refused with its
// file offset, leaving no output.
func TestSortSAMLines(t *testing.T) {
	hdr := "@SQ\tSN:chr1\tLN:1000\n"
	rec := "r%d\t0\tchr1\t%d\t30\t4M\t*\t0\t0\tACGT\tIIII\n"
	dir := t.TempDir()
	path, out := filepath.Join(dir, "in.sam"), filepath.Join(dir, "s.bam")
	text := hdr + fmt.Sprintf(rec, 1, 9) + "\n\n" + fmt.Sprintf(rec, 2, 3) + "\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := SortSAMToBAM(path, out, Options{ChunkRecords: 1}); err != nil || n != 2 {
		t.Fatalf("SortSAMToBAM = %d records, %v; want 2", n, err)
	}

	for _, bad := range []struct {
		line string
		err  error
	}{
		{"not\ta valid\trecord\n", sam.ErrInvalidRecord},
		{"r3\t0\tchrX\t5\t30\t4M\t*\t0\t0\tACGT\tIIII\n", bam.ErrInvalidRecord}, // no such reference
	} {
		if err := os.WriteFile(path, []byte(text+bad.line), 0o644); err != nil {
			t.Fatal(err)
		}
		os.Remove(out)
		_, err := SortSAMToBAM(path, out, Options{ChunkRecords: 1})
		at := fmt.Sprintf("file offset %d:", len(text))
		if !errors.Is(err, bad.err) || !strings.Contains(err.Error(), at) {
			t.Errorf("error = %v, want %v naming %q", err, bad.err, at)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("failed sort left %s behind (stat: %v)", out, err)
		}
	}
}

func TestSortSAMToBAM(t *testing.T) {
	samPath, _, d := unsortedDataset(t, 1000)
	for _, opts := range []Options{
		{},                             // defaults: one big chunk
		{ChunkRecords: 100, Cores: 4},  // many runs, parallel chunk sort
		{ChunkRecords: 1000, Cores: 1}, // exactly one chunk
		{ChunkRecords: 999, Cores: 2},  // trailing partial chunk
	} {
		out := filepath.Join(t.TempDir(), "s.bam")
		n, err := SortSAMToBAM(samPath, out, opts)
		if err != nil {
			t.Fatalf("SortSAMToBAM(%+v): %v", opts, err)
		}
		if n != 1000 {
			t.Errorf("sorted %d records", n)
		}
		checkSorted(t, out, d, 1000)
	}
}

// TestSortSAMWorkerInvariance: the sorted output's bytes do not depend
// on the batch line engine's worker count (set through GOMAXPROCS, the
// one-share adaptive rule) or the sort's rank count, over an input of
// several engine batches and many runs.
func TestSortSAMWorkerInvariance(t *testing.T) {
	samPath, _, d := unsortedDataset(t, 6000)
	old := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	var want []byte
	for _, workers := range []int{1, 4} {
		runtime.GOMAXPROCS(workers)
		if got := sam.AdaptiveWorkers(1); got != workers {
			t.Fatalf("GOMAXPROCS %d gives %d engine workers, want %d", workers, got, workers)
		}
		for _, cores := range []int{1, 3} {
			out := filepath.Join(t.TempDir(), "s.bam")
			n, err := SortSAMToBAM(samPath, out, Options{ChunkRecords: 700, Cores: cores})
			if err != nil || n != 6000 {
				t.Fatalf("workers=%d cores=%d: %d records, %v", workers, cores, n, err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				checkSorted(t, out, d, 6000)
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("workers=%d cores=%d: output differs from workers=1 cores=1", workers, cores)
			}
		}
	}
}

func TestSortBAM(t *testing.T) {
	_, bamPath, d := unsortedDataset(t, 600)
	out := filepath.Join(t.TempDir(), "s.bam")
	n, err := SortBAM(bamPath, out, Options{ChunkRecords: 128, Cores: 3})
	if err != nil {
		t.Fatalf("SortBAM: %v", err)
	}
	if n != 600 {
		t.Errorf("sorted %d records", n)
	}
	checkSorted(t, out, d, 600)
}

func TestSortedOutputIndexes(t *testing.T) {
	// The whole point: sorted output feeds the index builder.
	_, bamPath, _ := unsortedDataset(t, 400)
	out := filepath.Join(t.TempDir(), "s.bam")
	if _, err := SortBAM(bamPath, out, Options{ChunkRecords: 64, Cores: 2}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := bam.BuildFileIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("BuildFileIndex over sorted output: %v", err)
	}
	if idx.NumRefs() == 0 {
		t.Error("empty index")
	}
}

// encodeChunk lays the records out as the sorter's input loop does.
func encodeChunk(t testing.TB, h *sam.Header, recs []sam.Record) *chunk {
	t.Helper()
	c := &chunk{}
	for i := range recs {
		c.offs = append(c.offs, len(c.buf))
		var err error
		if c.buf, err = bam.EncodeRecord(c.buf, &recs[i], h); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestSortRecordsStable(t *testing.T) {
	h := sam.NewHeader(sam.Reference{Name: "chr1", Length: 1000}, sam.Reference{Name: "chr2", Length: 1000})
	mk := func(name, rname string, pos int32, flag sam.Flag) sam.Record {
		return sam.Record{
			QName: name, Flag: flag, RName: rname, Pos: pos, MapQ: 60,
			Cigar: sam.Cigar{sam.NewCigarOp(sam.CigarMatch, 4)},
			RNext: "*", Seq: "ACGT", Qual: "IIII",
		}
	}
	// An unmapped record sorts past every reference whether or not it is
	// placed; among themselves unmapped records sort by POS.
	recs := []sam.Record{
		mk("u1", "*", 0, sam.FlagUnmapped), mk("b", "chr1", 5, 0), mk("d", "chr2", 1, 0),
		mk("u2", "chr1", 2, sam.FlagUnmapped), mk("a", "chr1", 5, 0), mk("c", "chr1", 1, 0),
		mk("u3", "*", 0, sam.FlagUnmapped),
	}
	c := encodeChunk(t, h, recs)
	c.sort()
	var got []string
	for i := range c.offs {
		var rec sam.Record
		if err := bam.DecodeRecord(c.record(i)[4:], &rec, h); err != nil {
			t.Fatal(err)
		}
		got = append(got, rec.QName)
	}
	if want := "c b a d u1 u3 u2"; strings.Join(got, " ") != want {
		t.Errorf("order = %s, want %s (stability broken)", strings.Join(got, " "), want)
	}
}

func TestSortEmptyInput(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "e.sam")
	if err := os.WriteFile(empty, []byte("@SQ\tSN:chr1\tLN:100\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "e.bam")
	n, err := SortSAMToBAM(empty, out, Options{})
	if err != nil {
		t.Fatalf("empty sort: %v", err)
	}
	if n != 0 {
		t.Errorf("n = %d", n)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := bam.NewReader(f)
	if err != nil {
		t.Fatalf("empty output unreadable: %v", err)
	}
	if recs, _ := r.ReadAll(); len(recs) != 0 {
		t.Errorf("records = %d", len(recs))
	}
}

func TestSortMissingInput(t *testing.T) {
	if _, err := SortSAMToBAM("/nope.sam", filepath.Join(t.TempDir(), "o.bam"), Options{}); err == nil {
		t.Error("missing SAM accepted")
	}
	if _, err := SortBAM("/nope.bam", filepath.Join(t.TempDir(), "o.bam"), Options{}); err == nil {
		t.Error("missing BAM accepted")
	}
}

// SortBAM with codec workers inflates the input and deflates the output
// on worker pools; output bytes must match the sequential path exactly
// across the worker ladder.
func TestSortBAMCodecWorkersIdentical(t *testing.T) {
	_, bamPath, _ := unsortedDataset(t, 800)
	dir := t.TempDir()
	ref := filepath.Join(dir, "w1.bam")
	opts := Options{ChunkRecords: 128, Cores: 2, CodecWorkers: 1}
	if _, err := SortBAM(bamPath, ref, opts); err != nil {
		t.Fatalf("CodecWorkers=1 sort: %v", err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4, 8} {
		out := filepath.Join(dir, fmt.Sprintf("w%d.bam", workers))
		opts.CodecWorkers = workers
		if _, err := SortBAM(bamPath, out, opts); err != nil {
			t.Fatalf("CodecWorkers=%d sort: %v", workers, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("CodecWorkers=%d output differs from sequential (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}
}

// The adaptive codec default routes the output writer through
// bgzf.SharedPool; the output must stay byte-identical to the sequential
// codec.
func TestSortSharedCodecDefaultIdentical(t *testing.T) {
	samPath, _, _ := unsortedDataset(t, 700)
	dir := t.TempDir()
	ref := filepath.Join(dir, "seq.bam")
	if _, err := SortSAMToBAM(samPath, ref, Options{ChunkRecords: 100, Cores: 2, CodecWorkers: 1}); err != nil {
		t.Fatalf("sequential sort: %v", err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	// CodecWorkers 0 selects the adaptive count and the shared pool for
	// the output.
	out := filepath.Join(dir, "shared.bam")
	if _, err := SortSAMToBAM(samPath, out, Options{ChunkRecords: 100, Cores: 2}); err != nil {
		t.Fatalf("shared sort: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("shared-codec output differs from sequential (%d vs %d bytes)", len(got), len(want))
	}
}

// TestMergeRunsFailureLeavesNoOutput: a merge that cannot finish —
// here one run is cut off, mid-record or exactly at a record boundary,
// so its first records merge and a later read fails — leaves nothing in
// the output's directory, into any container, instead of a truncated
// file a later run could take for a sorted one.
func TestMergeRunsFailureLeavesNoOutput(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(4000))
	dir := t.TempDir()
	good := run{path: filepath.Join(dir, "run0"), n: 2000}
	bad := run{path: filepath.Join(dir, "run1"), n: 2000}
	if err := encodeChunk(t, d.Header, d.Records[:2000]).spill(good.path); err != nil {
		t.Fatal(err)
	}
	c := encodeChunk(t, d.Header, d.Records[2000:])
	if err := c.spill(bad.path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(bad.path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != len(c.buf) {
		t.Fatalf("run holds %d bytes, want the chunk's %d", len(raw), len(c.buf))
	}
	// The byte offset of record 1000 in the sorted run.
	boundary := 0
	for i := 0; i < 1000; i++ {
		boundary += len(c.record(i))
	}
	missing := run{path: filepath.Join(dir, "missing"), n: 1}
	// bam.RunReader's two kinds of short run: cut inside a record, the
	// frame is an invalid record; cut at a boundary, the run lacks
	// records.
	for cut, kind := range map[int]error{len(raw) / 2: bam.ErrInvalidRecord, boundary: io.ErrUnexpectedEOF} {
		if err := os.WriteFile(bad.path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		for _, runs := range [][]run{{good, bad}, {bad}, {good, missing}} {
			for _, name := range []string{"out.bam", "out.bamx", "out.pamx"} {
				outDir := t.TempDir()
				err := mergeRuns(runs, d.Header, filepath.Join(outDir, name), 1)
				if err == nil {
					t.Fatalf("merge of %v cut at %d into %s succeeded", runs, cut, name)
				}
				if runs[len(runs)-1] == bad && !errors.Is(err, kind) {
					t.Errorf("merge of %v cut at %d into %s: err = %v, want %v", runs, cut, name, err, kind)
				}
				if left, _ := os.ReadDir(outDir); len(left) != 0 {
					t.Fatalf("failed merge of %v into %s left %s behind", runs, name, left[0].Name())
				}
			}
		}
	}
	// The same runs intact still merge.
	if err := os.WriteFile(bad.path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mergeRuns([]run{good, bad}, d.Header, filepath.Join(dir, "ok.bam"), 1); err != nil {
		t.Fatal(err)
	}
}
