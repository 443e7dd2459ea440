package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is one workload run as the flags describe it.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	rounds   int // exact sample count; 0 measures for `seconds`
	reads    int
	trace    bool
	traceOut string
	dir      string // fresh work directory, removed by the caller
}

// cellResult is one measured cell: the median over its samples, their
// quartiles and count.
type cellResult struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`               // samples the quartiles rest on
	Calls  int     `json:"calls,omitempty"` // journey calls the median rests on
	Unit   string  `json:"unit"`
}

func summarize(samples []float64, unit string) cellResult {
	q1, q3 := quartiles(samples)
	return cellResult{Median: median(samples), Q1: q1, Q3: q3, N: len(samples), Unit: unit}
}

func single(v float64, unit string) cellResult {
	return cellResult{Median: v, Q1: v, Q3: v, N: 1, Unit: unit}
}

// value is a metric as the driver reads it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one workload run produced. EndToEnd holds the
// cells of the matrix only; PerLayer is filled by a traced run only.
type result struct {
	Workload    string                `json:"workload"`
	Seed        int64                 `json:"seed"`
	Reads       int                   `json:"reads"`
	Ranks       int                   `json:"ranks"`
	Traced      bool                  `json:"traced"`
	EndToEnd    map[string]cellResult `json:"end_to_end,omitempty"`
	PerLayer    map[string]value      `json:"per_layer,omitempty"`
	Omitted     map[string]string     `json:"omitted,omitempty"`
	Attempted   int                   `json:"attempted"`
	Failed      int                   `json:"failed"`
	FailedShare float64               `json:"failed_share"`
	Errors      []string              `json:"errors,omitempty"`
	WallS       float64               `json:"wall_s"`
	TraceFile   string                `json:"trace_file,omitempty"`
}

// prepared is a workload after set-up: its cells or, for the daemon,
// its load generator.
type prepared struct {
	*workload
	daemon *daemonHarness
	setups []float64 // seconds of each set-up repetition
}

// Set-up is repeated so that setup_s is a median: at least minSetupReps
// times, and until setupBudget has been spent on it (a 50 ms set-up
// needs more repetitions than a 1 s one to read steadily), never more
// than maxSetupReps times.
const (
	minSetupReps = 3
	maxSetupReps = 15
	setupBudget  = 1.0 // seconds
)

// repeatSetup calls build until the rules above are met and returns the
// seconds each call reported. The garbage of one repetition is collected
// before the next, so that peak_rss_mb does not depend on when the
// collector happened to run.
func repeatSetup(budget float64, build func() (seconds float64, err error)) ([]float64, error) {
	var times []float64
	total := 0.0
	for len(times) < minSetupReps || total < budget && len(times) < maxSetupReps {
		runtime.GC()
		s, err := build()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, s)
		total += s
	}
	return times, nil
}

// prepare runs set-up (the same seed gives the same files, so a
// repetition overwrites the last) and then builds the verification
// references, which are not part of setup_s: they are the benchmark's
// cost, not something a user waits for.
func prepare(cfg *runConfig, e *env) (*prepared, error) {
	p := &prepared{}
	var err error
	// A run with a fixed sample count (the smoke test) repeats set-up
	// the minimum only.
	budget := setupBudget
	if cfg.rounds > 0 {
		budget = 0
	}
	if cfg.workload == wHistogram {
		var in *histInputs
		p.setups, _ = repeatSetup(budget, func() (float64, error) {
			in = nil
			in = buildHistogram(e)
			return in.generateS, nil
		})
		p.workload, err = prepareHistogram(e, in)
		return p, err
	}
	want := map[string]container{
		wFromSAM: cSAM, wFromBAM: cBAM, wFromBAMX: cBAMX, wFromPAMX: cPAMX, wDaemon: cSAM | cBAMX,
	}[cfg.workload]
	reads := e.reads
	if cfg.workload == wDaemon {
		reads = daemonReads(e.reads)
	}
	var in *inputs
	p.setups, err = repeatSetup(budget, func() (float64, error) {
		in = nil
		var err error
		if in, err = buildInputs(e, "in", reads, want); err != nil {
			return 0, err
		}
		return in.generateS + in.deriveS, nil
	})
	if err != nil {
		return nil, err
	}
	in.hashRecords()
	switch cfg.workload {
	case wFromSAM:
		p.workload, err = prepareFromSAM(e, in)
	case wFromBAM:
		p.workload, err = prepareFromBAM(e, in)
	case wFromBAMX:
		p.workload, err = prepareFromBAMX(e, in)
	case wFromPAMX:
		p.workload, err = prepareFromPAMX(e, in)
	case wDaemon:
		if p.daemon, err = startDaemon(e, in); err == nil {
			p.workload = &workload{outIn: p.daemon.outIn, stop: p.daemon.stop}
		}
	}
	return p, err
}

// runWorkload sets a workload up, measures it (or traces it) and
// returns what it saw. Errors are failures of the benchmark itself;
// failures of the program under test are counted in the result.
func runWorkload(cfg *runConfig) (*result, error) {
	start := time.Now()
	e := &env{seed: cfg.seed, reads: cfg.reads, ranks: rankCount(), dir: cfg.dir}
	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Reads: cfg.reads, Ranks: e.ranks, Traced: cfg.trace,
		EndToEnd: map[string]cellResult{},
	}
	t := &tally{}
	if cfg.trace {
		if err := runTraced(cfg, e, t, res); err != nil {
			return nil, err
		}
	} else {
		p, err := prepare(cfg, e)
		if err != nil {
			return nil, err
		}
		if p.stop != nil {
			defer p.stop()
		}
		if p.daemon != nil {
			jobs := 0
			if cfg.rounds > 0 {
				jobs = 12 * cfg.rounds
			}
			run := p.daemon.run(cfg.seconds, jobs, t)
			overJobs := func(v float64, unit string) cellResult {
				c := single(v, unit)
				c.Calls = len(run.jobs)
				return c
			}
			res.EndToEnd[mJobsPerS] = overJobs(run.jobsPerS(), "1/s")
			res.EndToEnd[mJobP95] = overJobs(run.p95MS(), "ms")
		} else {
			for metric, rounds := range measure(p.cells, cfg.seconds, cfg.rounds, t) {
				res.EndToEnd[metric] = summarizeRounds(rounds, "s")
			}
		}
		res.EndToEnd[mSetup] = summarize(p.setups, "s")
		ratio, err := p.outIn()
		t.op(mOutIn, err)
		res.EndToEnd[mOutIn] = single(ratio, "ratio")
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.EndToEnd[mPeakRSS] = single(rss, "MB")
	}
	res.Attempted, res.Failed, res.FailedShare, res.Errors = t.attempted, t.failed, t.failedShare(), t.errs
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// passSeconds is the time of one pass over the workload's journeys: the
// sum of its timing cells' medians, or the time of daemonMinJobs jobs.
func passSeconds(res *result) float64 {
	if c, ok := res.EndToEnd[mJobsPerS]; ok {
		return daemonMinJobs / c.Median
	}
	pass := 0.0
	for _, m := range endToEnd { // in table order, so the sum rounds the same way every run
		if c, ok := res.EndToEnd[m.Name]; ok && m.Unit == "s" && m.Name != mSetup {
			pass += c.Median
		}
	}
	return pass
}

// driverMetrics is the dense row the driver reads: every end-to-end
// metric on every workload. A cell outside the matrix is not a journey
// of this workload; it carries the workload's pass time in the metric's
// unit and direction, so it moves only when a real cell of the row
// moves and gates nothing on its own.
func driverMetrics(res *result) map[string]value {
	if res.Traced {
		return res.PerLayer
	}
	pass := passSeconds(res)
	out := make(map[string]value, len(endToEnd))
	for _, m := range endToEnd {
		if c, ok := res.EndToEnd[m.Name]; ok {
			out[m.Name] = value{c.Median, m.Unit}
			continue
		}
		switch m.Unit {
		case "s":
			out[m.Name] = value{pass, m.Unit}
		case "ms":
			out[m.Name] = value{pass * 1e3, m.Unit}
		case "1/s":
			out[m.Name] = value{1 / pass, m.Unit}
		}
	}
	return out
}

// printTable writes every metric by name with its unit for a reader.
func printTable(res *result) {
	fmt.Printf("workload %s  seed %d  reads %d  ranks %d\n", res.Workload, res.Seed, res.Reads, res.Ranks)
	for _, m := range endToEnd {
		c, ok := res.EndToEnd[m.Name]
		if !ok {
			continue
		}
		spread := 0.0
		if c.Median != 0 {
			spread = (c.Q3 - c.Q1) / c.Median
		}
		fmt.Printf("  %-16s %14.6g %-6s samples=%-3d calls=%-5d iqr=%.1f%%\n", m.Name, c.Median, c.Unit, c.N, c.Calls, 100*spread)
	}
	names := make([]string, 0, len(res.PerLayer))
	for name := range res.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, skip := res.Omitted[name]; !skip {
			fmt.Printf("  %-30s %14.6g %s\n", name, res.PerLayer[name].Value, res.PerLayer[name].Unit)
		}
	}
	for name, why := range res.Omitted {
		fmt.Printf("  %-30s omitted: %s\n", name, why)
	}
	fmt.Printf("  %-16s %14.6g %-6s (%d of %d operations)\n", "failed_share", res.FailedShare, "ratio", res.Failed, res.Attempted)
	for _, e := range res.Errors {
		fmt.Printf("  FAILED %s\n", e)
	}
}
