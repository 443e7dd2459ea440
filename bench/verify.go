package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"os"

	"parseq/internal/bam"
	"parseq/internal/bamx"
	"parseq/internal/flagstat"
	"parseq/internal/formats/pamx"
	"parseq/internal/sam"
)

// Verification runs outside the timed region, on the outputs a journey
// left behind. Every checker returns an error naming what differed; the
// tally counts it as a failed operation.

type digest = [sha256.Size]byte

func mismatch(what string, got, want digest) error {
	if got == want {
		return nil
	}
	return fmt.Errorf("%s: SHA-256 %x, reference %x", what, got[:6], want[:6])
}

// hashFiles is the SHA-256 of the files' concatenation: rank files in
// rank order are one output, as `cat out_p*` makes it.
func hashFiles(paths []string) (digest, int64, error) {
	h := sha256.New()
	var n int64
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return digest{}, 0, err
		}
		m, err := io.Copy(h, f)
		f.Close()
		if err != nil {
			return digest{}, 0, err
		}
		n += m
	}
	var out digest
	h.Sum(out[:0])
	return out, n, nil
}

// verifyText checks that the concatenated rank files are byte-equal to
// the reference output (held as its SHA-256).
func verifyText(what string, paths []string, want digest) error {
	got, _, err := hashFiles(paths)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return mismatch(what, got, want)
}

// recordDigest hashes a record stream as SAM text, one line a record,
// so streams read back from BAM, BAMX or PAMX compare with the reads
// they were made from.
type recordDigest struct {
	h    hash.Hash
	line []byte
	n    int64
}

func newRecordDigest() *recordDigest { return &recordDigest{h: sha256.New()} }

func (d *recordDigest) add(rec *sam.Record) {
	d.line = append(rec.AppendTo(d.line[:0]), '\n')
	d.h.Write(d.line)
	d.n++
}

func (d *recordDigest) sum() (out digest) {
	d.h.Sum(out[:0])
	return out
}

// drain feeds every record next yields into d; next ends with io.EOF.
func (d *recordDigest) drain(next func(rec *sam.Record) error) error {
	var rec sam.Record
	for {
		err := next(&rec)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		d.add(&rec)
	}
}

// bamRecords hashes the records of BAM files read one after another
// (per-rank shards in rank order, or one file).
func bamRecords(paths []string) (digest, int64, error) {
	d := newRecordDigest()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return digest{}, 0, err
		}
		br, err := bam.NewReader(f)
		if err == nil {
			err = d.drain(br.ReadInto)
		}
		f.Close()
		if err != nil {
			return digest{}, 0, fmt.Errorf("%s: %w", p, err)
		}
	}
	return d.sum(), d.n, nil
}

// bamxRecords hashes the records of BAMX files read one after another.
func bamxRecords(paths []string) (digest, int64, error) {
	d := newRecordDigest()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return digest{}, 0, err
		}
		st, err := f.Stat()
		if err == nil {
			var xf *bamx.File
			if xf, err = bamx.Open(f, st.Size()); err == nil {
				sc := xf.Scan(0, xf.NumRecords())
				err = d.drain(func(rec *sam.Record) error {
					ok, err := sc.Next(rec)
					if err == nil && !ok {
						err = io.EOF
					}
					return err
				})
			}
		}
		f.Close()
		if err != nil {
			return digest{}, 0, fmt.Errorf("%s: %w", p, err)
		}
	}
	return d.sum(), d.n, nil
}

// pamxRecords hashes the records of one PAMX file, group by group with
// the full projection.
func pamxRecords(path string) (digest, int64, error) {
	pf, err := pamx.OpenPath(path)
	if err != nil {
		return digest{}, 0, err
	}
	defer pf.Close()
	d := newRecordDigest()
	for g := 0; g < pf.NumGroups(); g++ {
		gr, err := pf.NewGroupReader(g, pamx.FieldAll)
		if err != nil {
			return digest{}, 0, err
		}
		err = d.drain(gr.ReadInto)
		gr.Close()
		if err != nil {
			return digest{}, 0, fmt.Errorf("%s group %d: %w", path, g, err)
		}
	}
	return d.sum(), d.n, nil
}

// verifyRecords compares a decoded record stream with the reference.
func verifyRecords(what string, got digest, n int64, err error, want digest, wantN int64) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if n != wantN {
		return fmt.Errorf("%s: %d records, reference %d", what, n, wantN)
	}
	return mismatch(what, got, want)
}

func verifyFlagstat(what string, got, want flagstat.Stats) error {
	if got != want {
		return fmt.Errorf("%s: %+v, reference %+v", what, got, want)
	}
	return nil
}

// verifyBins compares two histograms bin by bin: exactly with tol 0,
// else within tol absolute.
func verifyBins(what string, got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d bins, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > tol || math.IsNaN(d) {
			return fmt.Errorf("%s: bin %d is %g, reference %g", what, i, got[i], want[i])
		}
	}
	return nil
}

// verifyRelative checks a scalar within a relative tolerance.
func verifyRelative(what string, got, want, tol float64) error {
	if d := math.Abs(got - want); d > tol*math.Abs(want) || math.IsNaN(d) {
		return fmt.Errorf("%s: %g, reference %g", what, got, want)
	}
	return nil
}
