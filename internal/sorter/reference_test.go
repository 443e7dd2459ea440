package sorter

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"parseq/internal/bam"
	"parseq/internal/sam"
	"parseq/internal/simdata"
)

// referenceSort is the sort the sorter must reproduce, on decoded
// records: a stable sort on (reference, POS) with unmapped records and
// records on no reference after every reference, written by a
// sequential bam.Writer.
func referenceSort(t *testing.T, h *sam.Header, recs []sam.Record) []byte {
	t.Helper()
	header := h.Clone()
	header.SortOrder = sam.SortCoordinate
	rank := func(rec *sam.Record) (int, int32) {
		id := header.RefID(rec.RName)
		if id < 0 || rec.Unmapped() {
			id = 1<<31 - 1
		}
		return id, rec.Pos
	}
	sorted := append([]sam.Record(nil), recs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		ri, pi := rank(&sorted[i])
		rj, pj := rank(&sorted[j])
		return ri < rj || ri == rj && pi < pj
	})
	var buf bytes.Buffer
	w, err := bam.NewWriter(&buf, header, bam.WithCodecWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sorted {
		if err := w.Write(&sorted[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceInput writes records as SAM and BAM: an unsorted dataset with
// a second copy of every seventh record, renamed, placed later in the
// input (duplicate positions whose input order must survive), and an
// unmapped tail.
func referenceInput(t *testing.T, n int) (samPath, bamPath string, h *sam.Header, recs []sam.Record) {
	t.Helper()
	cfg := simdata.DefaultConfig(n)
	cfg.Sorted = false
	d := simdata.Generate(cfg)
	recs = append(recs, d.Records...)
	for i := 0; i < n; i += 7 {
		dup := d.Records[i]
		dup.QName += "_dup"
		recs = append(recs, dup)
	}
	for i := 0; i < 20; i++ {
		recs = append(recs, sam.Record{
			QName: fmt.Sprintf("tail%d", i), Flag: sam.FlagUnmapped, RName: "*",
			RNext: "*", Seq: "ACGTN", Qual: "IIIII",
		})
	}
	dir := t.TempDir()
	samPath, bamPath = filepath.Join(dir, "in.sam"), filepath.Join(dir, "in.bam")
	var text bytes.Buffer
	sw, err := sam.NewWriter(&text, d.Header)
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	bw, err := bam.NewWriter(&bin, d.Header)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := sw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
		if err := bw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(samPath, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bamPath, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return samPath, bamPath, d.Header, recs
}

// TestSortMatchesReference: whatever the input format, chunk size, core
// count and codec, the sorted BAM is byte-equal to the reference sort of
// the decoded input.
func TestSortMatchesReference(t *testing.T) {
	const n = 700
	samPath, bamPath, h, recs := referenceInput(t, n)
	f, err := os.Open(bamPath)
	if err != nil {
		t.Fatal(err)
	}
	br, err := bam.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := br.ReadAll()
	br.Close()
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{"sam": referenceSort(t, h, recs), "bam": referenceSort(t, h, decoded)}
	if !bytes.Equal(want["sam"], want["bam"]) {
		t.Fatal("the reference sorts of the SAM and BAM inputs differ")
	}

	dir := t.TempDir()
	for _, in := range []struct {
		name, path string
		sort       func(string, string, Options) (int64, error)
	}{{"sam", samPath, SortSAMToBAM}, {"bam", bamPath, SortBAM}} {
		for _, cores := range []int{1, 2, 4} {
			for _, chunk := range []int{7, 0, len(recs) + 1} {
				for _, codec := range []int{1, 0} {
					opts := Options{ChunkRecords: chunk, Cores: cores, CodecWorkers: codec, TmpDir: dir}
					out := filepath.Join(dir, "out.bam")
					got, err := in.sort(in.path, out, opts)
					if err != nil {
						t.Fatalf("%s %+v: %v", in.name, opts, err)
					}
					if got != int64(len(recs)) {
						t.Errorf("%s %+v: sorted %d records, want %d", in.name, opts, got, len(recs))
					}
					raw, err := os.ReadFile(out)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(raw, want[in.name]) {
						t.Errorf("%s %+v: output (%d bytes) differs from the reference sort (%d bytes)",
							in.name, opts, len(raw), len(want[in.name]))
					}
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "parseq-sort-*")); len(left) != 0 {
		t.Errorf("temporary runs left behind: %v", left)
	}
}

// TestSortBAMMalformedRecord: a record whose l_read_name runs past its
// body is refused as the decoder refuses it, and no output is written.
func TestSortBAMMalformedRecord(t *testing.T) {
	_, _, h, recs := referenceInput(t, 50)
	var bin bytes.Buffer
	bw, err := bam.NewWriter(&bin, h)
	if err != nil {
		t.Fatal(err)
	}
	var enc []byte
	for i := range recs {
		if enc, err = bam.EncodeRecord(enc[:0], &recs[i], h); err != nil {
			t.Fatal(err)
		}
		if i == 30 {
			enc[4+8] = 255 // l_read_name, past the end of this short body
		}
		if err := bw.WriteEncoded(enc); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in, out := filepath.Join(dir, "bad.bam"), filepath.Join(dir, "out.bam")
	if err := os.WriteFile(in, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, codec := range []int{1, 0} {
		_, err := SortBAM(in, out, Options{ChunkRecords: 7, Cores: 2, CodecWorkers: codec})
		if !errors.Is(err, bam.ErrInvalidRecord) {
			t.Errorf("CodecWorkers=%d: error = %v, want bam.ErrInvalidRecord", codec, err)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("CodecWorkers=%d: failed sort left %s behind (stat: %v)", codec, out, err)
		}
	}
}
