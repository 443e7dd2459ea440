package main

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"parseq"
	"parseq/internal/bamx"
	"parseq/internal/conv"
	"parseq/internal/fdr"
	"parseq/internal/mpi"
	"parseq/internal/mpinet"
	"parseq/internal/nlmeans"
	"parseq/internal/obs"
	"parseq/internal/parpipe"
	"parseq/internal/peaks"
	"parseq/internal/shard"
	"parseq/internal/simdata"
	"parseq/internal/sorter"
)

// Layer probes over whole subsystems: the conv pipeline, the rank
// runtimes, shard planning, the statistics module, the sorter, the
// telemetry plane and the daemon.

// probeConv times the converter on both of its substrates, at the
// workload's rank count and on one rank, and the BAM-target extras.
func probeConv(p *probes, d *probeData) {
	dir, err := p.e.sub("probe-conv")
	if !p.t.op("mkdir", err) {
		return
	}
	opts := func(format string, ranks int) parseq.Options {
		return parseq.Options{Format: format, Cores: ranks, OutDir: dir, OutPrefix: "c"}
	}
	convert := func(name string, fn func() (*parseq.Result, error)) (float64, *parseq.Result) {
		var res *parseq.Result
		s := p.span(name, "conv", func() (map[string]float64, error) {
			var err error
			if res, err = fn(); err != nil {
				return nil, err
			}
			return recCounts(int(res.Stats.Records), int(res.Stats.BytesIn), int(res.Stats.BytesOut)), nil
		})
		return s, res
	}
	fromSAM := func(format string, ranks int) func() (*parseq.Result, error) {
		return func() (*parseq.Result, error) { return parseq.ConvertSAM(d.in.sam, opts(format, ranks)) }
	}
	fromBAMX := func(format string, ranks int) func() (*parseq.Result, error) {
		return func() (*parseq.Result, error) { return parseq.ConvertBAMX(d.in.bamx, d.in.baix, opts(format, ranks)) }
	}

	samToSAM, res := convert("conv.sam_to_sam", fromSAM("sam", p.e.ranks))
	p.set("conv.sam_to_sam_s", samToSAM)
	if res != nil {
		p.set("conv.stats_partition_s", res.Stats.PartitionTime.Seconds())
		p.set("conv.stats_convert_s", res.Stats.ConvertTime.Seconds())
	}
	samToBED, _ := convert("conv.sam_to_bed", fromSAM("bed", p.e.ranks))
	p.set("conv.sam_to_bed_s", samToBED)
	s, _ := convert("conv.sam_to_fastq", fromSAM("fastq", p.e.ranks))
	p.set("conv.sam_to_fastq_s", s)
	bamxToSAM, _ := convert("conv.bamx_to_sam", fromBAMX("sam", p.e.ranks))
	p.set("conv.bamx_to_sam_s", bamxToSAM)
	s, _ = convert("conv.bamx_to_bed", fromBAMX("bed", p.e.ranks))
	p.set("conv.bamx_to_bed_s", s)
	s, _ = convert("conv.bamx_to_fastq", fromBAMX("fastq", p.e.ranks))
	p.set("conv.bamx_to_fastq_s", s)

	// The paper's scaling claim at this core count: one rank against
	// the workload's ranks, same call.
	one, _ := convert("conv.ranks1_sam_to_bed", fromSAM("bed", 1))
	p.set("conv.ranks1_sam_to_bed_s", one)
	p.set("conv.rank_speedup_sam", one/samToBED)
	one, _ = convert("conv.ranks1_bamx_to_sam", fromBAMX("sam", 1))
	p.set("conv.ranks1_bamx_to_sam_s", one)
	p.set("conv.rank_speedup_bamx", one/bamxToSAM)

	_, res = convert("conv.bam_to_bed", func() (*parseq.Result, error) { return parseq.ConvertBAM(d.in.bam, opts("bed", p.e.ranks)) })
	if res != nil {
		p.set("conv.stats_preprocess_s", res.Stats.PreprocessTime.Seconds())
	}
	s, _ = convert("conv.bam_sequential", func() (*parseq.Result, error) { return parseq.ConvertBAMSequential(d.in.bam, opts("sam", 1)) })
	p.set("conv.bam_sequential_s", s)

	_, shards := convert("conv.sam_to_bam", func() (*parseq.Result, error) { return parseq.ConvertSAMToBAM(d.in.sam, opts("bam", p.e.ranks)) })
	if shards != nil {
		p.set("conv.merge_shards_s", p.span("conv.merge_shards", "conv", func() (map[string]float64, error) {
			n, err := parseq.MergeBAMShards(shards.Files, filepath.Join(dir, "merged.bam"))
			return recCounts(int(n), 0, 0), err
		}))
	}

	// BAMZ beside PAMX, for the container audit: size at rest, full and
	// partial conversion.
	bamz := filepath.Join(dir, "in.bamz")
	p.set("bamz.compress_s", p.span("bamz.compress", "bamx", func() (map[string]float64, error) {
		n, err := conv.CompressBAMXFile(d.in.bamx, bamz, bamx.DefaultRecsPerBlock)
		return recCounts(int(n), int(fileSize(d.in.bamx)), int(fileSize(bamz))), err
	}))
	p.set("bamz.bytes_per_bam_byte", float64(fileSize(bamz))/float64(fileSize(d.in.bam)))
	s, _ = convert("bamz.to_sam", func() (*parseq.Result, error) { return parseq.ConvertBAMZ(bamz, d.in.baix, opts("sam", p.e.ranks)) })
	p.set("bamz.to_sam_s", s)
	region, err := parseq.ParseRegion(histRef)
	p.t.op("ParseRegion", err)
	s, _ = convert("bamz.partial", func() (*parseq.Result, error) {
		o := opts("sam", p.e.ranks)
		o.Region = &region
		return parseq.ConvertBAMZ(bamz, d.in.baix, o)
	})
	p.set("bamz.partial_s", s)
}

// runLoopbackWorld forms a two-rank mpinet world over 127.0.0.1 inside
// this process and runs fn on both ranks.
func runLoopbackWorld(fn func(c *mpi.Comm) error) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	coord := ln.Addr().String()
	ln.Close() // rank 0 claims the port; rank 1 dials with retry
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := mpinet.Connect(mpinet.Config{
				Rank: r, World: 2, Coord: coord,
				DialTimeout: 10 * time.Second, JoinTimeout: 30 * time.Second, WaitTimeout: 30 * time.Second,
			})
			if err != nil {
				errs[r] = err
				return
			}
			defer w.Close()
			errs[r] = mpi.RunTransport(w, fn)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// probeRuntime covers parpipe, both rank transports and shard planning.
func probeRuntime(p *probes, d *probeData) {
	const items = 200000
	s := p.span("parpipe.items", "parpipe", func() (map[string]float64, error) {
		type job struct{ v int }
		pipe := parpipe.New(p.e.ranks, 64, func(j *job) { j.v++ })
		go func() {
			j := make([]job, items)
			for i := range j {
				pipe.Submit(&j[i])
			}
			pipe.Close()
		}()
		got := 0
		for range pipe.Out() {
			got++
		}
		if got != items {
			return nil, fmt.Errorf("parpipe delivered %d of %d items", got, items)
		}
		return map[string]float64{"items": items}, nil
	})
	p.set("parpipe.ns_per_item", s*1e9/items)

	// Two ranks even on one core: a one-rank world has nobody to wait for.
	const barriers, gathers, payload = 2000, 20, 1 << 20
	collectives := func(run func(fn func(c *mpi.Comm) error) error, layer string) {
		s := p.span(layer+".barrier", layer, func() (map[string]float64, error) {
			return map[string]float64{"calls": barriers}, run(func(c *mpi.Comm) error {
				for i := 0; i < barriers; i++ {
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
		})
		p.set(layer+".barrier_us", s*1e6/barriers)
		s = p.span(layer+".gather", layer, func() (map[string]float64, error) {
			return map[string]float64{"bytes_in": gathers * payload}, run(func(c *mpi.Comm) error {
				buf := make([]byte, payload)
				for i := 0; i < gathers; i++ {
					if _, err := c.Gather(0, buf); err != nil {
						return err
					}
				}
				return nil
			})
		})
		// Every rank but the root ships its payload.
		p.set(layer+".gather_mb_s", mbPerS(gathers*payload, s))
	}
	collectives(func(fn func(c *mpi.Comm) error) error { return mpi.Run(2, fn) }, "mpi")
	collectives(runLoopbackWorld, "mpinet")

	for _, c := range []struct{ metric, path string }{
		{"shard.plan_bam_us", d.in.bam}, {"shard.plan_bamx_us", d.in.bamx}, {"shard.plan_pamx_us", d.in.pamx},
	} {
		var shards []shard.Shard
		s := p.span(c.metric[:len(c.metric)-len("_us")], "shard", func() (map[string]float64, error) {
			pr := shard.OpenPathProvider(c.path)
			defer pr.Close()
			var err error
			shards, err = pr.GenerateShards(shard.Options{})
			return map[string]float64{"shards": float64(len(shards))}, err
		})
		p.set(c.metric, s*1e6)
		if c.path != d.in.bam || len(shards) == 0 {
			continue
		}
		var total, widest int64
		for _, sh := range shards {
			total += sh.Bytes
			widest = max(widest, sh.Bytes)
		}
		p.set("shard.skew_bam", float64(widest)*float64(len(shards))/float64(total))
		s = p.span("shard.foreach", "shard", func() (map[string]float64, error) {
			pr := shard.OpenPathProvider(c.path)
			defer pr.Close()
			return map[string]float64{"shards": float64(len(shards))},
				shard.ForEach(pr, shards, 0, func(int, shard.Shard, shard.RecordReader) error { return nil })
		})
		p.set("shard.foreach_us_per_shard", s*1e6/float64(len(shards)))
	}
}

// probeAnalyses covers peaks, nlmeans, fdr and the sorter.
func probeAnalyses(p *probes, d *probeData) {
	bins := (d.ds.Header.Refs[0].Length + histBin - 1) / histBin
	sims := simdata.Simulations(20, bins, p.e.seed+2)
	p.set("peaks.coverage_peaks_s", p.span("peaks.coverage_peaks", "peaks", func() (map[string]float64, error) {
		pr := shard.OpenPathProvider(d.in.bam)
		defer pr.Close()
		found, _, _, _, err := peaks.CoveragePeaks(pr, histRef, histBin, sims, []float64{1, 2, 3, 4}, peaks.Options{}, shard.Config{})
		return map[string]float64{"peaks": float64(len(found))}, err
	}))

	h, hs := d.hist.bins, d.hist.sims
	seq := p.span("nlmeans.seq", "nlmeans", func() (map[string]float64, error) {
		_, err := nlmeans.Denoise(h, nlParams)
		return map[string]float64{"bins": float64(len(h))}, err
	})
	p.set("nlmeans.seq_s", seq)
	par := p.span("nlmeans.parallel", "nlmeans", func() (map[string]float64, error) {
		_, err := nlmeans.DenoiseParallel(h, nlParams, p.e.ranks)
		return nil, err
	})
	p.set("nlmeans.speedup", seq/par)
	p.set("nlmeans.distributed_s", p.span("nlmeans.distributed", "nlmeans", func() (map[string]float64, error) {
		return nil, mpi.Run(p.e.ranks, func(c *mpi.Comm) error {
			_, err := nlmeans.DenoiseDistributed(c, h, nlParams)
			return err
		})
	}))

	seq = p.span("fdr.sequential", "fdr", func() (map[string]float64, error) {
		_, err := fdr.Sequential(h, hs, fdrPt)
		return map[string]float64{"bins": float64(len(h)), "sims": float64(len(hs))}, err
	})
	p.set("fdr.sequential_s", seq)
	p.set("fdr.fused_s", p.span("fdr.fused", "fdr", func() (map[string]float64, error) {
		_, err := fdr.Fused(h, hs, fdrPt)
		return nil, err
	}))
	p.set("fdr.twopass_s", p.span("fdr.twopass", "fdr", func() (map[string]float64, error) {
		_, err := fdr.TwoPass(h, hs, fdrPt)
		return nil, err
	}))
	par = p.span("fdr.parallel_fused", "fdr", func() (map[string]float64, error) {
		return nil, mpi.Run(p.e.ranks, func(c *mpi.Comm) error {
			_, err := fdr.ParallelFused(c, h, hs, fdrPt)
			return err
		})
	})
	p.set("fdr.parallel_speedup", seq/par)

	dir, err := p.e.sub("probe-sort")
	if !p.t.op("mkdir", err) {
		return
	}
	p.set("sorter.sort_bam_s", p.span("sorter.sort_bam", "sorter", func() (map[string]float64, error) {
		n, err := sorter.SortBAM(d.in.bam, filepath.Join(dir, "sorted.bam"), sorter.Options{Cores: p.e.ranks, TmpDir: dir})
		return recCounts(int(n), int(fileSize(d.in.bam)), 0), err
	}))
}

// probeObs measures what switching telemetry on costs the converter:
// SAM→BED with a registry installed against none, minima of alternating
// pairs so that a slow moment of the machine hits neither side alone.
func probeObs(p *probes, d *probeData) {
	dir, err := p.e.sub("probe-obs")
	if !p.t.op("mkdir", err) {
		return
	}
	const pairs = 4
	off, on := 1e9, 1e9
	p.span("obs.overhead", "obs", func() (map[string]float64, error) {
		defer obs.SetDefault(nil)
		for i := 0; i < pairs; i++ {
			for _, reg := range []*obs.Registry{nil, obs.New()} {
				obs.SetDefault(reg)
				s, err := timeIt(func() error {
					_, err := parseq.ConvertSAM(d.in.sam, parseq.Options{Format: "bed", Cores: p.e.ranks, OutDir: dir, OutPrefix: "o"})
					return err
				})
				if err != nil {
					return nil, err
				}
				if reg == nil {
					off = min(off, s)
				} else {
					on = min(on, s)
				}
			}
		}
		return map[string]float64{"pairs": pairs}, nil
	})
	p.set("obs.enabled_overhead_share", on/off-1)
}

// probeDaemon runs a burst of jobs, records each job and its phases as
// spans after the fact, sets the daemon.* metrics and returns the share
// of the jobs' latency that was not engine run time.
func probeDaemon(p *probes, h *daemonHarness, jobs int) float64 {
	run := h.run(0, jobs, p.t)
	var submit, queued, ran, result, overhead []float64
	polls, shed := 0, 0
	var latencySum, runSum float64
	for _, j := range run.jobs {
		if j.shed {
			shed++
		}
		if j.err != nil {
			continue
		}
		class := h.classes[j.class].name
		end := j.start.Add(j.latency)
		id := p.tr.add(p.parent, "job."+class, "daemon", j.start, end,
			map[string]float64{"polls": float64(j.polls), "queued_ms": float64(j.queuedMS), "run_ms": float64(j.runMS)})
		p.tr.add(id, "submit", "daemon", j.start, j.start.Add(j.submit), nil)
		p.tr.add(id, "result", "daemon", end.Add(-j.result), end, nil)
		ms := j.latency.Seconds() * 1e3
		submit = append(submit, j.submit.Seconds()*1e3)
		queued = append(queued, float64(j.queuedMS))
		ran = append(ran, float64(j.runMS))
		result = append(result, j.result.Seconds()*1e3)
		overhead = append(overhead, ms-float64(j.runMS))
		polls += j.polls
		latencySum += ms
		runSum += float64(j.runMS)
	}
	p.set("daemon.submit_ms_p50", median(submit))
	p.set("daemon.queued_ms_p50", median(queued))
	p.set("daemon.run_ms_p50", median(ran))
	p.set("daemon.result_ms_p50", median(result))
	p.set("daemon.overhead_ms_p50", median(overhead))
	for i, c := range h.classes {
		p.set("daemon."+c.name+"_p50_ms", median(run.latenciesMS(i)))
	}
	p.set("daemon.polls_per_job", float64(polls)/float64(max(len(submit), 1)))
	p.set("daemon.shed", float64(shed))
	p.set("daemon.spool_mb_end", run.spoolMB)
	if latencySum == 0 {
		return 1
	}
	return 1 - runSum/latencySum
}
