package main

import (
	"fmt"
	"path/filepath"

	"parseq"
	"parseq/internal/flagstat"
	"parseq/internal/hist"
	"parseq/internal/shard"
)

// The four container workloads: the same reads held as SAM, BAM, BAMX
// or PAMX, and the journeys a user with that file can start. Worker
// options stay at their adaptive defaults, as the CLIs leave them; only
// the rank count is set.

const (
	histRef = "chr1"
	histBin = 200
)

// workload is a prepared set of cells plus what they report besides
// time.
type workload struct {
	cells []*cell
	// outIn is bytes written ÷ bytes read over the cells whose output
	// is compressed, read after the last sample.
	outIn func() (float64, error)
	// stop releases what prepare started (the daemon's listener).
	stop func()
}

// sizeRatio sums a cell's output files against its input file.
type sizeRatio struct {
	in, out int64
}

func (s *sizeRatio) add(input string, outputs ...string) {
	s.in += fileSize(input)
	for _, p := range outputs {
		s.out += fileSize(p)
	}
}

func (s *sizeRatio) value() (float64, error) {
	if s.in == 0 || s.out == 0 {
		return 0, fmt.Errorf("out_in_ratio: %d bytes out for %d in", s.out, s.in)
	}
	return float64(s.out) / float64(s.in), nil
}

// sequential is the reference configuration every parallel output must
// reproduce: one rank, the sequential codec, the line-at-a-time loop.
func sequential(o parseq.Options) parseq.Options {
	o.Cores, o.CodecWorkers, o.ParseWorkers = 1, 1, 1
	return o
}

// textCell converts the whole input to each format in turn and checks
// the concatenated rank files against the sequential reference.
func textCell(e *env, metric string, inner int, formats []string, region *parseq.Region,
	convert func(o parseq.Options) (*parseq.Result, error)) (*cell, error) {
	dir, err := e.sub(metric)
	if err != nil {
		return nil, err
	}
	opts := func(format, prefix string) parseq.Options {
		return parseq.Options{Format: format, Cores: e.ranks, OutDir: dir, OutPrefix: prefix, Region: region}
	}
	want := make([]digest, len(formats))
	for i, f := range formats {
		res, err := convert(sequential(opts(f, "ref")))
		if err != nil {
			return nil, fmt.Errorf("%s reference (%s): %w", metric, f, err)
		}
		if want[i], _, err = hashFiles(res.Files); err != nil {
			return nil, err
		}
	}
	files := make([][]string, len(formats))
	return &cell{
		metric: metric, inner: inner,
		run: func() error {
			for i, f := range formats {
				res, err := convert(opts(f, "out"))
				if err != nil {
					return err
				}
				files[i] = res.Files
			}
			return nil
		},
		check: func() error {
			for i, f := range formats {
				if err := verifyText(metric+" "+f, files[i], want[i]); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

// recordsCell runs a conversion into a binary container and checks that
// its record stream decodes back to the reads.
func recordsCell(metric string, inner int, in *inputs, run func() error,
	read func() (digest, int64, error)) *cell {
	return &cell{
		metric: metric, inner: inner, run: run,
		check: func() error {
			got, n, err := read()
			return verifyRecords(metric, got, n, err, in.records, in.count)
		},
	}
}

// shardedCells are flagstat and the chr1 histogram over a binary
// container, through the shard provider the CLIs open.
func shardedCells(path string, innerFlagstat, innerHist int) ([]*cell, error) {
	one := shard.Config{Ranks: 1, Workers: 1, TargetShards: 1}
	withProvider := func(fn func(p shard.Provider) error) error {
		p := shard.OpenPathProvider(path)
		defer p.Close()
		return fn(p)
	}
	var wantStats, gotStats flagstat.Stats
	var wantHist, gotHist *hist.Histogram
	err := withProvider(func(p shard.Provider) (err error) {
		wantStats, err = flagstat.Sharded(p, one)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("flagstat reference: %w", err)
	}
	err = withProvider(func(p shard.Provider) (err error) {
		wantHist, err = hist.FromProvider(p, histRef, histBin, one)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("hist reference: %w", err)
	}
	return []*cell{
		{
			metric: mFlagstat, inner: innerFlagstat,
			run: func() error {
				return withProvider(func(p shard.Provider) (err error) {
					gotStats, err = flagstat.Sharded(p, shard.Config{})
					return err
				})
			},
			check: func() error { return verifyFlagstat(mFlagstat, gotStats, wantStats) },
		},
		{
			metric: mHist, inner: innerHist,
			run: func() error {
				return withProvider(func(p shard.Provider) (err error) {
					gotHist, err = hist.FromProvider(p, histRef, histBin, shard.Config{})
					return err
				})
			},
			check: func() error { return verifyBins(mHist, gotHist.Bins, wantHist.Bins, 0) },
		},
	}, nil
}

func prepareFromSAM(e *env, in *inputs) (*workload, error) {
	text, err := textCell(e, mToText, 5, []string{"sam", "bed"}, nil,
		func(o parseq.Options) (*parseq.Result, error) { return parseq.ConvertSAM(in.sam, o) })
	if err != nil {
		return nil, err
	}
	bamDir, err := e.sub(mToBAM)
	if err != nil {
		return nil, err
	}
	bamxDir, err := e.sub(mToBAMX)
	if err != nil {
		return nil, err
	}
	var shards, bamxFiles []string
	toBAM := recordsCell(mToBAM, 1, in,
		func() error {
			res, err := parseq.ConvertSAMToBAM(in.sam, parseq.Options{Format: "bam", Cores: e.ranks, OutDir: bamDir, OutPrefix: "out"})
			if err == nil {
				shards = res.Files
			}
			return err
		},
		func() (digest, int64, error) { return bamRecords(shards) })
	toBAMX := recordsCell(mToBAMX, 4, in,
		func() error {
			res, err := parseq.PreprocessSAM(in.sam, bamxDir, "out", e.ranks)
			if err == nil {
				bamxFiles = res.BAMXFiles
			}
			return err
		},
		func() (digest, int64, error) { return bamxRecords(bamxFiles) })

	wantStats, err := parseq.Flagstat(in.sam, 1)
	if err != nil {
		return nil, fmt.Errorf("flagstat reference: %w", err)
	}
	wantHist, err := parseq.CoverageParallel(in.sam, histRef, histBin, 1)
	if err != nil {
		return nil, fmt.Errorf("hist reference: %w", err)
	}
	var gotStats parseq.FlagstatStats
	var gotHist *parseq.Histogram
	stats := &cell{
		metric: mFlagstat, inner: 48,
		run:   func() (err error) { gotStats, err = parseq.Flagstat(in.sam, e.ranks); return err },
		check: func() error { return verifyFlagstat(mFlagstat, gotStats, wantStats) },
	}
	coverage := &cell{
		metric: mHist, inner: 24,
		run: func() (err error) {
			gotHist, err = parseq.CoverageParallel(in.sam, histRef, histBin, e.ranks)
			return err
		},
		check: func() error { return verifyBins(mHist, gotHist.Bins, wantHist.Bins, 0) },
	}
	return &workload{
		cells: []*cell{text, toBAM, toBAMX, stats, coverage},
		outIn: func() (float64, error) {
			var r sizeRatio
			r.add(in.sam, shards...)
			return r.value()
		},
	}, nil
}

func prepareFromBAM(e *env, in *inputs) (*workload, error) {
	text, err := textCell(e, mToText, 1, []string{"sam", "bed"}, nil,
		func(o parseq.Options) (*parseq.Result, error) { return parseq.ConvertBAM(in.bam, o) })
	if err != nil {
		return nil, err
	}
	dir, err := e.sub("binary")
	if err != nil {
		return nil, err
	}
	outBAMX, outBAIX, outPAMX := filepath.Join(dir, "out.bamx"), filepath.Join(dir, "out.baix"), filepath.Join(dir, "out.pamx")
	toBAMX := recordsCell(mToBAMX, 3, in,
		func() error { _, err := parseq.PreprocessBAM(in.bam, outBAMX, outBAIX); return err },
		func() (digest, int64, error) { return bamxRecords([]string{outBAMX}) })
	toPAMX := recordsCell(mToPAMX, 1, in,
		func() error { _, err := parseq.ConvertBAMToPAMX(in.bam, outPAMX, parseq.PAMXOptions{}); return err },
		func() (digest, int64, error) { return pamxRecords(outPAMX) })
	sharded, err := shardedCells(in.bam, 5, 30)
	if err != nil {
		return nil, err
	}
	return &workload{
		cells: append([]*cell{text, toBAMX, toPAMX}, sharded...),
		outIn: func() (float64, error) {
			var r sizeRatio
			r.add(in.bam, outPAMX)
			return r.value()
		},
	}, nil
}

func prepareFromBAMX(e *env, in *inputs) (*workload, error) {
	convert := func(o parseq.Options) (*parseq.Result, error) { return parseq.ConvertBAMX(in.bamx, in.baix, o) }
	text, err := textCell(e, mToText, 4, []string{"sam", "bed"}, nil, convert)
	if err != nil {
		return nil, err
	}
	region, err := parseq.ParseRegion(histRef)
	if err != nil {
		return nil, err
	}
	partial, err := textCell(e, mPartial, 60, []string{"sam"}, &region, convert)
	if err != nil {
		return nil, err
	}
	dir, err := e.sub("binary")
	if err != nil {
		return nil, err
	}
	outPAMX := filepath.Join(dir, "out.pamx")
	toPAMX := recordsCell(mToPAMX, 1, in,
		func() error { _, err := parseq.ConvertBAMXToPAMX(in.bamx, outPAMX, parseq.PAMXOptions{}); return err },
		func() (digest, int64, error) { return pamxRecords(outPAMX) })
	sharded, err := shardedCells(in.bamx, 12, 70)
	if err != nil {
		return nil, err
	}
	return &workload{
		cells: append([]*cell{text, toPAMX, partial}, sharded...),
		outIn: func() (float64, error) {
			var r sizeRatio
			r.add(in.bamx, outPAMX)
			return r.value()
		},
	}, nil
}

func prepareFromPAMX(e *env, in *inputs) (*workload, error) {
	dir, err := e.sub("binary")
	if err != nil {
		return nil, err
	}
	outBAM := filepath.Join(dir, "out.bam")
	toBAM := recordsCell(mToBAM, 1, in,
		func() error { _, err := parseq.ConvertPAMXToBAM(in.pamx, outBAM, parseq.PAMXOptions{}); return err },
		func() (digest, int64, error) { return bamRecords([]string{outBAM}) })
	sharded, err := shardedCells(in.pamx, 40, 400)
	if err != nil {
		return nil, err
	}
	return &workload{
		cells: append([]*cell{toBAM}, sharded...),
		outIn: func() (float64, error) {
			var r sizeRatio
			r.add(in.pamx, outBAM)
			return r.value()
		},
	}, nil
}
