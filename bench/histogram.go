package main

import (
	"io"
	"time"

	"parseq"
	"parseq/internal/fdr"
	"parseq/internal/hist"
	"parseq/internal/simdata"
)

// The histogram workload is the paper's second module on its own: pure
// compute and the rank runtime's halo exchange and reduce, no file and
// no format layer. A container or codec change predicts no move here.

const (
	histSims = 40
	fdrPt    = 1.0
)

var nlParams = parseq.NLMeansParams{R: 20, L: 15, Sigma: 10} // ngsstat's defaults

type histInputs struct {
	bins      []float64
	sims      [][]float64
	generateS float64
}

// buildHistogram makes the coverage histogram and its simulation
// datasets from the seed: five bins a read, 200 000 at the default size.
func buildHistogram(e *env) *histInputs {
	t0 := time.Now()
	n := 5 * e.reads
	return &histInputs{
		bins:      simdata.Histogram(n, e.seed),
		sims:      simdata.Simulations(histSims, n, e.seed+1),
		generateS: time.Since(t0).Seconds(),
	}
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// tsvBytes is the size of the one-value-a-line file ngsstat would write.
func tsvBytes(bins []float64) (int64, error) {
	var w countingWriter
	err := hist.WriteTSV(io.Writer(&w), bins)
	return w.n, err
}

func prepareHistogram(e *env, in *histInputs) (*workload, error) {
	wantDenoised, err := parseq.Denoise(in.bins, nlParams)
	if err != nil {
		return nil, err
	}
	wantFDR, err := fdr.Sequential(in.bins, in.sims, fdrPt)
	if err != nil {
		return nil, err
	}
	var denoised []float64
	var rate float64
	return &workload{
		cells: []*cell{
			{
				metric: mDenoise, inner: 1,
				run:   func() (err error) { denoised, err = parseq.DenoiseParallel(in.bins, nlParams, e.ranks); return err },
				check: func() error { return verifyBins(mDenoise, denoised, wantDenoised, 1e-9) },
			},
			{
				metric: mFDR, inner: 2,
				run:   func() (err error) { rate, err = parseq.FDRParallel(in.bins, in.sims, fdrPt, e.ranks); return err },
				check: func() error { return verifyRelative(mFDR, rate, wantFDR, 1e-12) },
			},
		},
		// The denoised histogram as ngsstat writes it, against the
		// histogram it read: no codec is involved, so nothing a
		// container change does should move it.
		outIn: func() (float64, error) {
			var r sizeRatio
			var err error
			if r.in, err = tsvBytes(in.bins); err != nil {
				return 0, err
			}
			if r.out, err = tsvBytes(denoised); err != nil {
				return 0, err
			}
			return r.value()
		},
	}, nil
}
