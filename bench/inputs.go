package main

import (
	"bufio"
	"crypto/sha256"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"parseq/internal/bam"
	"parseq/internal/bamx"
	"parseq/internal/bgzf"
	"parseq/internal/formats/pamx"
	"parseq/internal/simdata"
)

// env is what every workload is handed: the seed, the input size, the
// rank count and a fresh directory for inputs and outputs.
type env struct {
	seed  int64
	reads int
	ranks int
	dir   string
}

// rankCount is the rank (and daemon client) count of every parallel
// journey: one load-generating process, never more ranks than cores.
func rankCount() int { return min(runtime.GOMAXPROCS(0), 4) }

// sub makes and returns a directory under the work directory.
func (e *env) sub(name string) (string, error) {
	p := filepath.Join(e.dir, name)
	return p, os.MkdirAll(p, 0o755)
}

// container selects which files set-up derives from the reads.
type container uint

const (
	cSAM  container = 1 << iota
	cBAM            // with its .bai sidecar
	cBAMX           // with its .baix sidecar
	cPAMX
	cAll = cSAM | cBAM | cBAMX | cPAMX
)

// inputs are the generated reads and the containers derived from them.
type inputs struct {
	ds *simdata.Dataset

	sam, bam, bai, bamx, baix, pamx string

	// records is the SHA-256 of every read rendered as one SAM line:
	// what any binary output must decode back to.
	records [sha256.Size]byte
	count   int64

	generateS, deriveS float64
}

// fileSize is the size of the file at path, 0 when there is none.
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// writeFile creates path, hands fn a buffered writer and closes both,
// reporting the first error.
func writeFile(path string, fn func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := fn(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildInputs generates reads reads from the seed and writes the wanted
// containers under dir/name. The same seed gives the same files.
func buildInputs(e *env, name string, reads int, want container) (*inputs, error) {
	dir, err := e.sub(name)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	cfg := simdata.DefaultConfig(reads)
	cfg.Seed = e.seed
	in := &inputs{ds: simdata.Generate(cfg)}
	in.generateS = time.Since(t0).Seconds()

	t0 = time.Now()
	h, recs := in.ds.Header, in.ds.Records
	if want&cSAM != 0 {
		in.sam = filepath.Join(dir, "in.sam")
		if err := writeFile(in.sam, func(w *bufio.Writer) error { return in.ds.WriteSAM(w) }); err != nil {
			return nil, err
		}
	}
	if want&cBAM != 0 {
		in.bam = filepath.Join(dir, "in.bam")
		in.bai = in.bam + ".bai"
		err := writeFile(in.bam, func(w *bufio.Writer) error {
			bw, err := bam.NewWriter(w, h, bam.WithCodecWorkers(bgzf.AutoWorkers()))
			if err != nil {
				return err
			}
			for i := range recs {
				if err := bw.Write(&recs[i]); err != nil {
					return err
				}
			}
			return bw.Close()
		})
		if err != nil {
			return nil, err
		}
		f, err := os.Open(in.bam)
		if err != nil {
			return nil, err
		}
		err = writeFile(in.bai, func(w *bufio.Writer) error { return bam.WriteIndexFile(f, w) })
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	if want&cBAMX != 0 {
		in.bamx = filepath.Join(dir, "in.bamx")
		in.baix = filepath.Join(dir, "in.baix")
		var ix *bamx.Index
		err := writeFile(in.bamx, func(w *bufio.Writer) (err error) {
			ix, err = bamx.BuildFromRecords(w, h, recs)
			return err
		})
		if err != nil {
			return nil, err
		}
		err = writeFile(in.baix, func(w *bufio.Writer) error { _, err := ix.WriteTo(w); return err })
		if err != nil {
			return nil, err
		}
	}
	if want&cPAMX != 0 {
		in.pamx = filepath.Join(dir, "in.pamx")
		err := writeFile(in.pamx, func(w *bufio.Writer) error {
			pw, err := pamx.NewWriter(w, h, pamx.Options{})
			if err != nil {
				return err
			}
			for i := range recs {
				if err := pw.Write(&recs[i]); err != nil {
					return err
				}
			}
			return pw.Close()
		})
		if err != nil {
			return nil, err
		}
	}
	in.deriveS = time.Since(t0).Seconds()
	return in, nil
}

// hashRecords fills in.records and count and lets go of the reads: they
// are only a reference from here on, and a heap of 40 000 records would
// tax every collection the journeys trigger. It is verification, not
// set-up.
func (in *inputs) hashRecords() {
	d := newRecordDigest()
	for i := range in.ds.Records {
		d.add(&in.ds.Records[i])
	}
	in.records, in.count = d.sum(), d.n
	in.ds = nil
}
