package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parseq/internal/bam"
	"parseq/internal/bamx"
	"parseq/internal/formats/pamx"
	"parseq/internal/sam"
)

// longCigarSAM writes a one-record SAM whose read has ops CIGAR
// operations (1M1I repeated, then 1M if ops is odd) and returns its path
// and alignment line.
func longCigarSAM(t *testing.T, ops int) (path, line string) {
	t.Helper()
	cigar := strings.Repeat("1M1I", ops/2) + strings.Repeat("1M", ops%2)
	line = fmt.Sprintf("r1\t0\tchr1\t100\t30\t%s\t*\t0\t0\t%s\t%s",
		cigar, strings.Repeat("ACGT", ops/4+1)[:ops], strings.Repeat("I", ops))
	path = filepath.Join(t.TempDir(), "long.sam")
	if err := os.WriteFile(path, []byte("@SQ\tSN:chr1\tLN:1000000\n"+line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, line
}

// TestCigarOpLimit: n_cigar_op is a uint16, so a read of 65 535 CIGAR
// operations round-trips through every binary writer — bam.Writer, the
// converter's BAM shards, the sorter, BAMX from records and from SAM,
// and the PAMX writer — and one of 65 536 is refused by each with
// bam.ErrInvalidRecord, where a wrapped count would write a corrupt
// record.
func TestCigarOpLimit(t *testing.T) {
	h := sam.NewHeader(sam.Reference{Name: "chr1", Length: 1000000})
	type writer struct {
		name  string
		write func(samPath string, rec *sam.Record, dir string) (string, error)
	}
	writers := []writer{
		{"bam.Writer", func(_ string, rec *sam.Record, dir string) (string, error) {
			var buf bytes.Buffer
			w, err := bam.NewWriter(&buf, h)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Write(rec); err != nil {
				w.Close()
				return "", err
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "w.bam")
			return path, os.WriteFile(path, buf.Bytes(), 0o644)
		}},
		{"bamx.BuildFromRecords", func(_ string, rec *sam.Record, dir string) (string, error) {
			var buf bytes.Buffer
			if _, err := bamx.BuildFromRecords(&buf, h, []sam.Record{*rec}); err != nil {
				return "", err
			}
			path := filepath.Join(dir, "r.bamx")
			return path, os.WriteFile(path, buf.Bytes(), 0o644)
		}},
		{"pamx.Writer", func(_ string, rec *sam.Record, dir string) (string, error) {
			var buf bytes.Buffer
			w, err := pamx.NewWriter(&buf, h, pamx.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Write(rec); err != nil {
				w.Close()
				return "", err
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "w.pamx")
			return path, os.WriteFile(path, buf.Bytes(), 0o644)
		}},
	}
	for _, spec := range []Spec{
		{Format: "bam"},
		{Op: OpSort},
		{Format: "bamx"},
	} {
		writers = append(writers, writer{fmt.Sprintf("engine op %q format %q", spec.Op, spec.Format), func(samPath string, _ *sam.Record, dir string) (string, error) {
			spec.InputPath = samPath
			res, err := Run(spec, Env{OutDir: dir})
			if err != nil {
				return "", err
			}
			return filepath.Join(dir, res.Files[0].Name), nil
		}})
	}

	for _, ops := range []int{65535, 65536} {
		samPath, line := longCigarSAM(t, ops)
		rec, err := sam.ParseRecord(line)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range writers {
			dir := t.TempDir()
			out, err := w.write(samPath, &rec, dir)
			if ops > 65535 {
				if !errors.Is(err, bam.ErrInvalidRecord) {
					t.Errorf("%s, %d ops: %v, want bam.ErrInvalidRecord", w.name, ops, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s, %d ops: %v", w.name, ops, err)
			}
			back := t.TempDir()
			res, err := Run(Spec{InputPath: out, Format: "sam"}, Env{OutDir: back})
			if err != nil {
				t.Fatalf("%s, %d ops: reading %s back: %v", w.name, ops, filepath.Base(out), err)
			}
			var got []string
			for _, f := range res.Files {
				text, err := os.ReadFile(filepath.Join(back, f.Name))
				if err != nil {
					t.Fatal(err)
				}
				for _, l := range strings.Split(strings.TrimSuffix(string(text), "\n"), "\n") {
					if l != "" && !strings.HasPrefix(l, "@") {
						got = append(got, l)
					}
				}
			}
			if len(got) != 1 || got[0] != line {
				t.Errorf("%s, %d ops: read back %d records, first differs: %v", w.name, ops, len(got), len(got) > 0 && got[0] != line)
			}
		}
	}
}
