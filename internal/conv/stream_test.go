package conv

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parseq/internal/bam"
	"parseq/internal/sam"
)

// TestConvertStreamMatchesSequentialBAM pins the one-rank entry: a plain
// bam.Reader.ReadInto iterator, and one that hands every record over
// through a deep copy of a library-side scratch object (the shape of the
// Table I adaptation shim in internal/experiments), both give the bytes
// and tallies of ConvertBAMSequential for text and BAM targets.
func TestConvertStreamMatchesSequentialBAM(t *testing.T) {
	_, bamPath, _ := writeDataset(t, 400)
	stream := func(t *testing.T, opts Options, adapt bool) (*Result, error) {
		f, err := os.Open(bamPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		br, err := bam.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		defer br.Close()
		var scratch sam.Record
		next := func(rec *sam.Record) (bool, error) {
			into := rec
			if adapt {
				into = &scratch
			}
			if err := br.ReadInto(into); err != nil {
				if err == io.EOF {
					err = nil
				}
				return false, err
			}
			if adapt {
				*rec = scratch
				rec.QName = strings.Clone(scratch.QName)
				rec.Seq = strings.Clone(scratch.Seq)
				rec.Qual = strings.Clone(scratch.Qual)
				rec.Cigar = append(sam.Cigar(nil), scratch.Cigar...)
				rec.Tags = append([]sam.Tag(nil), scratch.Tags...)
			}
			return true, nil
		}
		return ConvertStream(br.Header(), next, func() int64 {
			off, _ := f.Seek(0, io.SeekCurrent)
			return off
		}, opts)
	}
	for _, format := range []string{"sam", "bed", "fastq", "bam"} {
		opts := Options{Format: format, OutDir: t.TempDir(), OutPrefix: "seq", CodecWorkers: 1}
		want, err := ConvertBAMSequential(bamPath, opts)
		if err != nil {
			t.Fatalf("%s: ConvertBAMSequential: %v", format, err)
		}
		for _, adapt := range []bool{false, true} {
			opts.OutDir, opts.Cores = t.TempDir(), 4 // Cores is forced to 1
			got, err := stream(t, opts, adapt)
			if err != nil {
				t.Fatalf("%s adapt=%v: ConvertStream: %v", format, adapt, err)
			}
			if len(got.Files) != 1 {
				t.Fatalf("%s adapt=%v: %d files, want 1", format, adapt, len(got.Files))
			}
			if concatFiles(t, got.Files) != concatFiles(t, want.Files) {
				t.Errorf("%s adapt=%v: bytes differ from ConvertBAMSequential", format, adapt)
			}
			g, w := got.Stats, want.Stats
			if g.Records != w.Records || g.Emitted != w.Emitted || g.BytesIn != w.BytesIn || g.BytesOut != w.BytesOut {
				t.Errorf("%s adapt=%v: stats %+v, want %+v", format, adapt, g, w)
			}
		}
	}
	_, err := stream(t, Options{OutDir: t.TempDir(), Region: &Region{RName: "chr1", Beg: 1}}, false)
	if err == nil {
		t.Error("ConvertStream accepted a region")
	}
}

// TestRewritesLeaveNoPartialOutput: a whole-file rewrite that fails
// removes every file it created.
func TestRewritesLeaveNoPartialOutput(t *testing.T) {
	samPath, bamPath, _ := writeDataset(t, 2000)
	raw, err := os.ReadFile(bamPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	truncated := filepath.Join(dir, "trunc.bam")
	if err := os.WriteFile(truncated, raw[:len(raw)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	shards, err := ConvertSAMToBAM(samPath, Options{Cores: 2, OutDir: dir, OutPrefix: "s"})
	if err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(dir, "garbage.bam")
	if err := os.WriteFile(garbage, []byte("not a BAM shard"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		outputs []string
		run     func(outputs []string) error
	}{
		{"PreprocessBAMFile/truncated mid-block", []string{"o.bamx", "o.baix"}, func(o []string) error {
			_, err := PreprocessBAMFile(truncated, o[0], o[1], 1)
			return err
		}},
		{"MergeBAMShards/garbage second shard", []string{"merged.bam"}, func(o []string) error {
			_, err := MergeBAMShards([]string{shards.Files[0], garbage}, o[0], 1)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := t.TempDir()
			paths := make([]string, len(tc.outputs))
			for i, name := range tc.outputs {
				paths[i] = filepath.Join(out, name)
			}
			if err := tc.run(paths); err == nil {
				t.Fatal("failure not reported")
			}
			left, err := os.ReadDir(out)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range left {
				t.Errorf("partial output left behind: %s", e.Name())
			}
		})
	}
}
