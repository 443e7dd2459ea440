package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is BENCHMARK.json at the repository root: the one place
// the bounds live.
type benchmarkSpec struct {
	EndToEnd  []boundedMetric `json:"end_to_end"`
	PerLayer  []metricDef     `json:"per_layer"` // field names match the keys, case aside
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	Paths      []string `json:"paths"`
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
}

// boundedMetric is an end-to-end metric as BENCHMARK.json lists it.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec := &benchmarkSpec{}
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

func loadResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := &resultSet{}
	if err := json.Unmarshal(data, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// verdict of one cell, B against A.
const (
	vUnchanged  = "unchanged"
	vImproved   = "improved"
	vRegressed  = "REGRESSED"
	vUnresolved = "unresolved"
	vMissing    = "MISSING"
)

// judge compares one cell of result set B with the same cell of A under
// the metric's bound: worse by more than the bound is a regression; a
// cell whose own inter-quartile range exceeds the bound in either set
// cannot be told from unchanged and is unresolved.
func judge(a, b cellResult, better string, bound float64) (verdict string, change float64) {
	change = (b.Median - a.Median) / a.Median
	worse := change
	if better == "higher" {
		worse = -change
	}
	spread := 0.0
	for _, c := range []cellResult{a, b} {
		if c.Median != 0 {
			spread = max(spread, (c.Q3-c.Q1)/c.Median)
		}
	}
	switch {
	case worse > bound:
		return vRegressed, change
	case spread > bound:
		return vUnresolved, change
	case worse < -bound:
		return vImproved, change
	}
	return vUnchanged, change
}

// checkResults compares B with A cell by cell, prints every cell that
// is not plainly unchanged and returns the process exit code: non-zero
// when a cell is outside its bound, a cell is missing, or an operation
// failed in either set.
func checkResults(spec *benchmarkSpec, a, b *resultSet, w io.Writer) int {
	code := 0
	if a.Host.CPUModel != b.Host.CPUModel || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS || a.Host.Filesystem != b.Host.Filesystem {
		fmt.Fprintf(w, "warning: the two sets were not taken on the same host (%s, GOMAXPROCS %d, %s  vs  %s, GOMAXPROCS %d, %s)\n",
			a.Host.CPUModel, a.Host.GOMAXPROCS, a.Host.Filesystem, b.Host.CPUModel, b.Host.GOMAXPROCS, b.Host.Filesystem)
	}
	counts := map[string]int{}
	for _, workload := range workloadNames {
		ra, rb := a.Workloads[workload], b.Workloads[workload]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-12s %-14s %s\n", workload, "*", vMissing)
			code = 1
			continue
		}
		for _, r := range []*result{ra, rb} {
			if r.Failed != 0 {
				fmt.Fprintf(w, "%-12s %-14s failed_share %.3g (%d of %d operations), allowed 0\n", workload, "*", r.FailedShare, r.Failed, r.Attempted)
				code = 1
			}
		}
		for _, m := range spec.EndToEnd {
			if !inMatrix(workload, m.Name) {
				continue
			}
			ca, okA := ra.EndToEnd[m.Name]
			cb, okB := rb.EndToEnd[m.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-12s %-14s %s\n", workload, m.Name, vMissing)
				code = 1
				continue
			}
			verdict, change := judge(ca, cb, m.Better, m.Bound)
			counts[verdict]++
			if verdict == vRegressed {
				code = 1
			}
			if verdict != vUnchanged {
				fmt.Fprintf(w, "%-12s %-14s %-10s %.6g -> %.6g %s (%+.1f%%, bound %.0f%%, iqr %.1f%% / %.1f%%)\n",
					workload, m.Name, verdict, ca.Median, cb.Median, m.Unit, 100*change, 100*m.Bound,
					100*(ca.Q3-ca.Q1)/ca.Median, 100*(cb.Q3-cb.Q1)/cb.Median)
			}
		}
	}
	fmt.Fprintf(w, "%d unchanged, %d improved, %d unresolved, %d regressed\n",
		counts[vUnchanged], counts[vImproved], counts[vUnresolved], counts[vRegressed])
	return code
}

func checkFiles(pathA, pathB string, w io.Writer) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -check reads the bounds from BENCHMARK.json in the current directory:", err)
		return 2
	}
	a, err := loadResultSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadResultSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return checkResults(spec, a, b, w)
}
