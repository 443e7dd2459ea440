package sorter

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

// TestReaderLineLimit shrinks the line limit and requires sam.Reader —
// and so SortSAMToBAM, which reads through it — to accept a line one
// byte under the limit and to refuse the next, over-limit line with the
// shared error carrying that line's file offset.
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
	path := filepath.Join(t.TempDir(), "cap.sam")
	if err := os.WriteFile(path, []byte(hdr+good+edge+long), 0o644); err != nil {
		t.Fatal(err)
	}
	want := sam.LineTooLongError(int64(len(hdr) + len(good) + len(edge))).Error()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := sam.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if len(recs) != 2 {
		t.Errorf("sam.Reader read %d records before the long line, want 2", len(recs))
	}
	if !errors.Is(err, bufio.ErrTooLong) || err.Error() != want {
		t.Errorf("sam.Reader error = %v, want %q", err, want)
	}

	_, err = SortSAMToBAM(path, filepath.Join(t.TempDir(), "s.bam"), Options{})
	if !errors.Is(err, bufio.ErrTooLong) || err.Error() != want {
		t.Errorf("SortSAMToBAM error = %v, want %q", err, want)
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

func TestSortRecordsStable(t *testing.T) {
	h := sam.NewHeader(sam.Reference{Name: "chr1", Length: 1000})
	mk := func(name string, pos int32) sam.Record {
		return sam.Record{
			QName: name, RName: "chr1", Pos: pos, MapQ: 60,
			Cigar: sam.Cigar{sam.NewCigarOp(sam.CigarMatch, 4)},
			RNext: "*", Seq: "ACGT", Qual: "IIII",
		}
	}
	recs := []sam.Record{mk("b", 5), mk("a", 5), mk("c", 1)}
	SortRecords(h, recs)
	if recs[0].QName != "c" || recs[1].QName != "b" || recs[2].QName != "a" {
		t.Errorf("order = %s %s %s (stability broken)", recs[0].QName, recs[1].QName, recs[2].QName)
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

// SortBAM with codec workers routes the input through the parallel
// record scanner; output bytes must match the sequential path exactly
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

// The adaptive codec default routes spill and merge writers through
// bgzf.SharedPool; the output must stay byte-identical to the private
// per-stream pools and the sequential codec.
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
	// spills and the merge.
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
// here one run is cut off mid-stream, so its first records merge and a
// later read fails — removes the partial outPath instead of leaving a
// truncated file a later run could take for a sorted BAM.
func TestMergeRunsFailureLeavesNoOutput(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(4000))
	dir := t.TempDir()
	good, bad := filepath.Join(dir, "run0.bam"), filepath.Join(dir, "run1.bam")
	if err := writeRun(good, d.Header, d.Records[:2000], 1, false); err != nil {
		t.Fatal(err)
	}
	if err := writeRun(bad, d.Header, d.Records[2000:], 1, false); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, runs := range [][]string{{good, bad}, {bad}, {good, filepath.Join(dir, "missing.bam")}} {
		out := filepath.Join(dir, "out.bam")
		if err := mergeRuns(runs, d.Header, out, 1, false); err == nil {
			t.Fatalf("merge of %v succeeded", runs)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("failed merge of %v left %s behind (stat: %v)", runs, out, err)
		}
	}
	// The same runs intact still merge.
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mergeRuns([]string{good, bad}, d.Header, filepath.Join(dir, "ok.bam"), 1, false); err != nil {
		t.Fatal(err)
	}
}
