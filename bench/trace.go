package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"parseq/internal/simdata"
)

// The traced run. It never feeds an end-to-end number: it runs the
// workload's cells once each under a root span, then the layer probes,
// each one public call (or one loop of a per-record call over the
// dataset) wrapped in a child span. Everything is recorded from outside
// the packages, with the clock and getrusage; spans inside the program
// are a later change.

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

var perLayerUnit = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

// probes is the traced run's recorder: spans under the current parent,
// per-layer metrics by name, and the CPU each span used.
type probes struct {
	e      *env
	tr     *tracer
	parent int
	t      *tally
	m      map[string]value
	cpu    map[string]float64
}

// span runs fn as a child span of p.parent, counts it as an operation
// and returns its wall-clock seconds. Spans fn opens nest under this one.
// fn returns the counts seen at this boundary (records, bytes in and
// out).
func (p *probes) span(name, layer string, fn func() (map[string]float64, error)) float64 {
	runtime.GC()
	id := p.tr.start(p.parent, name, layer)
	outer := p.parent
	p.parent = id
	c0 := cpuSeconds()
	counts, err := fn()
	cpu := cpuSeconds() - c0
	p.parent = outer
	if counts == nil {
		counts = map[string]float64{}
	}
	counts["cpu_s"] = cpu
	p.tr.end(id, counts)
	p.t.op("probe "+name, err)
	p.cpu[name] = cpu
	return p.tr.seconds(id)
}

// set records a per-layer metric; a name the table does not list is a
// bug in the benchmark.
func (p *probes) set(name string, v float64) {
	unit, ok := perLayerUnit[name]
	if !ok {
		panic("bench: per-layer metric " + name + " is not in the table")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		p.t.op(name, fmt.Errorf("not a number: %v", v))
		v = 0
	}
	p.m[name] = value{v, unit}
}

// probeData is what the probes read: every container of the reads, the
// reads themselves, and the histogram module's inputs.
type probeData struct {
	in   *inputs
	ds   *simdata.Dataset
	hist *histInputs
}

// canonical names the workload whose cell stands for a journey in the
// cpu.* metrics when the traced workload has no such journey itself.
var canonical = map[string]string{
	mToText: wFromSAM, mToBAM: wFromSAM, mToBAMX: wFromBAM, mToPAMX: wFromBAMX, mPartial: wFromBAMX,
	mFlagstat: wFromBAM, mHist: wFromBAM, mDenoise: wHistogram, mFDR: wHistogram,
}

// budgets lists, for the journey each container workload is budgeted
// on, the probe spans whose CPU should add up to the journey's CPU and
// how often the journey does that work.
var budgets = map[string]struct {
	journey string
	parts   map[string]float64
}{
	// SAM and BED are two passes, each delimiting and parsing every
	// line; the scan probe is itself two passes (count, then find).
	wFromSAM: {mToText, map[string]float64{"partition.split": 2, "kern.scan": 1, "sam.parse": 2, "formats.sam": 1, "formats.bed": 1}},
	// PreprocessBAM reads the BAM twice: once to size the fields, once
	// to write them padded.
	wFromBAM:   {mToBAMX, map[string]float64{"bam.scan_bodies": 2, "bamx.write": 1}},
	wFromBAMX:  {mToText, map[string]float64{"bamx.read_raw": 2, "bamx.decode": 2, "formats.sam": 1, "formats.bed": 1}},
	wFromPAMX:  {mFlagstat, map[string]float64{"pamx.read_flag": 1, "flagstat.body": 1}},
	wHistogram: {mDenoise, map[string]float64{"nlmeans.seq": 1}},
}

// traceRepeats is how often a cell runs untraced before its traced call,
// for trace.overhead_share.
const traceRepeats = 3

// runTraced does its own set-up: whichever workload is traced, the
// probes need every container of the same reads, the histogram and a
// daemon.
func runTraced(cfg *runConfig, e *env, t *tally, res *result) error {
	in, err := buildInputs(e, "in", e.reads, cAll)
	if err != nil {
		return err
	}
	data := &probeData{in: in, ds: in.ds, hist: buildHistogram(e)}
	in.hashRecords()
	din, err := buildInputs(e, "daemon-in", daemonReads(e.reads), cSAM|cBAMX)
	if err != nil {
		return err
	}
	daemon, err := startDaemon(e, din)
	if err != nil {
		return err
	}
	defer daemon.stop()

	rows := map[string]*workload{}
	for name, prep := range map[string]func() (*workload, error){
		wFromSAM:   func() (*workload, error) { return prepareFromSAM(e, in) },
		wFromBAM:   func() (*workload, error) { return prepareFromBAM(e, in) },
		wFromBAMX:  func() (*workload, error) { return prepareFromBAMX(e, in) },
		wFromPAMX:  func() (*workload, error) { return prepareFromPAMX(e, in) },
		wHistogram: func() (*workload, error) { return prepareHistogram(e, data.hist) },
	} {
		if rows[name], err = prep(); err != nil {
			return fmt.Errorf("%s cells: %w", name, err)
		}
	}
	cellOf := func(row, journey string) *cell {
		if w := rows[row]; w != nil {
			for _, c := range w.cells {
				if c.metric == journey {
					return c
				}
			}
		}
		return nil
	}

	tr := newTracer(fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	root := tr.start(0, cfg.workload, "workload")
	p := &probes{e: e, tr: tr, parent: root, t: t, m: map[string]value{}, cpu: map[string]float64{}}
	p.set("simdata.generate_s", in.generateS)
	p.set("setup.derive_s", in.deriveS)

	// The workload's own cells: untraced repeats, then once under a span.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var untraced, traced, ownCPU float64
	for _, journey := range cpuJourneys {
		c := cellOf(cfg.workload, journey)
		if c == nil {
			continue
		}
		var reps []float64
		for i := 0; i < traceRepeats; i++ {
			reps = append(reps, sample(&cell{metric: c.metric, inner: 1, run: c.run}, t)...)
		}
		untraced += median(reps)
		traced += p.span(journey, "journey", func() (map[string]float64, error) { return nil, c.run() })
		t.verify(c)
		ownCPU += p.cpu[journey]
		p.set(cpuMetric(journey), p.cpu[journey])
	}
	if cfg.workload == wDaemon {
		traced = p.span("daemon_jobs", "journey", func() (map[string]float64, error) {
			// The share of a job's latency that is not its engine's run time.
			p.set("budget.unattributed_share", probeDaemon(p, daemon, daemonMinJobs))
			return nil, nil
		})
		ownCPU = p.cpu["daemon_jobs"]
		// The load generator is the same code traced or not; its
		// spans are made after the jobs finish.
		untraced = traced
	}
	runtime.ReadMemStats(&ms1)
	p.set("proc.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
	p.set("proc.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	p.set("proc.cpu_util", ownCPU/(traced*float64(e.ranks)))
	p.set("trace.overhead_share", traced/untraced-1)

	// Journeys this workload has no cell for, on their canonical
	// container, so that every cpu.* is reported by every traced run.
	for _, journey := range cpuJourneys {
		if cellOf(cfg.workload, journey) != nil {
			continue
		}
		c := cellOf(canonical[journey], journey)
		c.run() // warm-up
		p.span(journey+"@"+canonical[journey], "journey", func() (map[string]float64, error) { return nil, c.run() })
		p.set(cpuMetric(journey), p.cpu[journey+"@"+canonical[journey]])
	}

	probeRecords(p, data)
	probeCodec(p, data)
	probeContainers(p, data)
	probeConv(p, data)
	probeRuntime(p, data)
	probeAnalyses(p, data)
	probeObs(p, data)
	if cfg.workload != wDaemon {
		p.span("daemon.burst", "daemon", func() (map[string]float64, error) {
			probeDaemon(p, daemon, daemonMinJobs/4)
			return nil, nil
		})
	}

	// How much of the budgeted journey's CPU the layer probes explain.
	if b, ok := budgets[cfg.workload]; ok {
		explained := 0.0
		for name, times := range b.parts {
			explained += times * p.cpu[name]
		}
		p.set("budget.unattributed_share", 1-explained/p.cpu[b.journey])
	}
	tr.end(root, map[string]float64{"cpu_s": cpuSeconds()})

	if bad := wellFormed(tr.spans); bad != nil {
		return fmt.Errorf("trace: span %d (%s) is not inside its parent", bad.ID, bad.Name)
	}
	path := cfg.traceOut
	if path == "" {
		path = filepath.Join(".bench_out", "trace_"+cfg.workload+".json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := tr.writeChrome(path); err != nil {
		return err
	}
	res.TraceFile = path
	res.PerLayer = p.m
	omitScaling(res)
	return nil
}

// timeIt runs fn and returns its seconds; for ratios of two timings
// inside one span.
func timeIt(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}

// omitScaling drops the metrics that compare a parallel path with its
// sequential twin when there is one core to run both on: recorded flat
// they would read as "parallelism does not help".
func omitScaling(res *result) {
	if runtime.GOMAXPROCS(0) >= 2 {
		return
	}
	res.Omitted = map[string]string{}
	for name := range scalingMetrics {
		res.Omitted[name] = "GOMAXPROCS < 2: a scaling metric would read flat"
	}
}
