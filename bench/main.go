// Command bench is parseq's one benchmark: a container × journey matrix
// of end-to-end timings, and a traced run that times calls into each
// internal package from outside. See README.md in this directory.
//
//	go run ./bench -workload from_bam -seed 1          one workload
//	go run ./bench -workload from_bam -seed 1 -trace 1 its traced run
//	go run ./bench -all -out a.json                    every workload, each in its own process
//	go run ./bench -check a.json b.json                compare two result sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
)

// defaultReads sizes the container workloads. At 40 000 reads the SAM is
// 11 MB and a workload's untraced run, set-up included, takes 15-20 s,
// which is what the driver's total time allows for 136 runs.
const defaultReads = 40000

// resultSet is what -all -out writes and -check reads.
type resultSet struct {
	Host      hostInfo           `json:"host"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Workloads map[string]*result `json:"workloads"`
}

// cleanup removes the work directory and stops a running child, on
// normal exit and on SIGINT/SIGTERM alike.
type cleanup struct {
	mu    sync.Mutex
	dir   string
	child *os.Process
}

func (c *cleanup) run() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.child != nil {
		c.child.Kill()
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

func (c *cleanup) setChild(p *os.Process) {
	c.mu.Lock()
	c.child = p
	c.mu.Unlock()
}

func (c *cleanup) onSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		c.run()
		os.Exit(130)
	}()
}

func main() {
	var (
		workloadFlag = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
		all          = flag.Bool("all", false, "run every workload, each in its own child process")
		check        = flag.Bool("check", false, "compare two result sets: -check A.json B.json")
		seed         = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds      = flag.Float64("seconds", 15, "how long a workload measures, after set-up and one warm-up round")
		samples      = flag.Int("samples", 0, "take exactly this many samples per cell instead of measuring for -seconds")
		trace        = flag.Int("trace", 0, "1 runs the traced run: per-layer metrics and spans instead of end-to-end metrics")
		traceOut     = flag.String("trace-out", "", "where the traced run writes its Chrome trace (default .bench_out/trace_<workload>.json)")
		reads        = flag.Int("reads", defaultReads, "reads in the generated dataset")
		out          = flag.String("out", "", "with -all: write the result set here")
		resultFile   = flag.String("result", "", "write this workload's full result as JSON here (used by -all)")
		workdir      = flag.String("workdir", "", "make the work directory under this path instead of /dev/shm or the temporary directory")
	)
	flag.Parse()

	if *check {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-check takes two result sets"))
		}
		os.Exit(checkFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}

	if *all == (*workloadFlag != "") {
		flag.Usage()
		os.Exit(2)
	}
	if _, ok := matrix[*workloadFlag]; !*all && !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have %v\n", *workloadFlag, workloadNames)
		os.Exit(2)
	}

	clean := &cleanup{}
	clean.onSignal()
	dir, err := makeWorkDir(*workdir)
	if err != nil {
		fatal(err)
	}
	clean.dir = dir
	if *all {
		err = runAll(clean, dir, *seed, *seconds, *samples, *reads, *out)
	} else {
		err = runOne(&runConfig{
			workload: *workloadFlag, seed: *seed, seconds: *seconds, rounds: *samples,
			reads: *reads, trace: *trace != 0, traceOut: *traceOut, dir: dir,
		}, *resultFile)
	}
	clean.run()
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runOne runs one workload in this process and prints its table and,
// last, the line the driver reads.
func runOne(cfg *runConfig, resultFile string) error {
	host := describeHost(cfg.dir)
	fmt.Printf("host: %s, %d cpus, GOMAXPROCS %d, %s, commit %s, work directory on %s\n",
		host.CPUModel, host.NProc, host.GOMAXPROCS, host.GoVersion, host.Commit, host.Filesystem)
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	printTable(res)
	if resultFile != "" {
		if err := writeJSON(resultFile, res); err != nil {
			return err
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed,
		"metrics": driverMetrics(res),
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs each workload in a child process of its own, so that
// peak_rss_mb is that workload's and no workload inherits another's
// heap, and gathers their results into one set. A workload with failed
// operations is an error, after the set is written.
func runAll(clean *cleanup, dir string, seed int64, seconds float64, samples, reads int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := &resultSet{Host: describeHost(dir), Seed: seed, Seconds: seconds, Workloads: map[string]*result{}}
	failed := 0
	for _, name := range workloadNames {
		resFile := filepath.Join(dir, name+".json")
		cmd := exec.Command(exe,
			"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-samples", fmt.Sprint(samples), "-reads", fmt.Sprint(reads), "-workdir", dir, "-result", resFile)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		clean.setChild(cmd.Process)
		err := cmd.Wait()
		clean.setChild(nil)
		if err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		data, err := os.ReadFile(resFile)
		if err != nil {
			return err
		}
		res := &result{}
		if err := json.Unmarshal(data, res); err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		set.Workloads[name] = res
		failed += res.Failed
	}
	if out != "" {
		if err := writeJSON(out, set); err != nil {
			return err
		}
	}
	if failed != 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}
