package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"parseq"
	"parseq/internal/bam"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesBenchmarkJSON holds the program's tables and
// BENCHMARK.json in step: same names, units and directions, well-formed
// names, bounds within the contract, set-up with the largest bound.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if got := strings.Join(spec.Command, " "); !strings.HasPrefix(got, "go run ./bench") {
		t.Errorf("command = %q", got)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloadNames))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not well-formed", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range spec.Workloads {
		unique(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the program has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	var setupBound float64
	for i, m := range spec.EndToEnd {
		unique(m.Name)
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("end-to-end metric %d is %+v, the program has %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == mSetup {
			setupBound = m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s has bound %g, larger than setup_s's %g", m.Name, m.Bound, setupBound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program (at most 128)", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		unique(m.Name)
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer metric %d is %+v, the program has %+v", i, m, want)
		}
	}
	for name := range scalingMetrics {
		if _, ok := perLayerUnit[name]; !ok {
			t.Errorf("scaling metric %q is not a per-layer metric", name)
		}
	}
	for w, cells := range matrix {
		for _, m := range cells {
			if !seen[m] {
				t.Errorf("matrix row %s lists %q, which BENCHMARK.json does not name", w, m)
			}
		}
	}
}

func smokeConfig(t *testing.T, workload string, trace bool) *runConfig {
	t.Helper()
	dir := t.TempDir()
	return &runConfig{
		workload: workload, seed: 3, rounds: 2, reads: 2000, trace: trace,
		traceOut: filepath.Join(dir, "trace.json"), dir: dir,
	}
}

// TestSmoke runs every workload small, untraced and traced, and checks
// that exactly the listed metrics come out, each with its unit, and that
// nothing failed.
func TestSmoke(t *testing.T) {
	unitOf := map[string]string{}
	for _, m := range endToEnd {
		unitOf[m.Name] = m.Unit
	}
	for _, workload := range workloadNames {
		t.Run(workload, func(t *testing.T) {
			t.Parallel() // nothing here asserts a time
			res, err := runWorkload(smokeConfig(t, workload, false))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.FailedShare != 0 || res.Attempted == 0 {
				t.Errorf("failed %d of %d operations: %v", res.Failed, res.Attempted, res.Errors)
			}
			for _, name := range matrix[workload] {
				c, ok := res.EndToEnd[name]
				if !ok {
					t.Errorf("%s is listed for %s and was not emitted", name, workload)
				} else if c.Unit != unitOf[name] || !(c.Median > 0) {
					t.Errorf("%s = %g %q, want a positive number of %q", name, c.Median, c.Unit, unitOf[name])
				}
			}
			for name := range res.EndToEnd {
				if !inMatrix(workload, name) {
					t.Errorf("%s was emitted and is not listed for %s", name, workload)
				}
			}
			row := driverMetrics(res)
			if len(row) != len(endToEnd) {
				t.Errorf("the driver's row has %d metrics, want all %d", len(row), len(endToEnd))
			}
			for _, m := range endToEnd {
				if v, ok := row[m.Name]; !ok || v.Unit != m.Unit || !(v.Value > 0) {
					t.Errorf("driver row: %s = %+v", m.Name, v)
				}
			}

			traced, err := runWorkload(smokeConfig(t, workload, true))
			if err != nil {
				t.Fatal(err)
			}
			if traced.Failed != 0 {
				t.Errorf("traced run failed %d of %d operations: %v", traced.Failed, traced.Attempted, traced.Errors)
			}
			if len(traced.EndToEnd) != 0 {
				t.Errorf("the traced run reported end-to-end metrics: %v", traced.EndToEnd)
			}
			for _, m := range perLayer {
				v, ok := traced.PerLayer[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("per-layer %s = %+v, want unit %q", m.Name, v, m.Unit)
				}
			}
			for name := range traced.PerLayer {
				if _, ok := perLayerUnit[name]; !ok {
					t.Errorf("per-layer %s was emitted and is not listed", name)
				}
			}
			if (runtime.GOMAXPROCS(0) < 2) != (len(traced.Omitted) > 0) {
				t.Errorf("GOMAXPROCS %d, omitted %v", runtime.GOMAXPROCS(0), traced.Omitted)
			}
			checkTraceFile(t, traced.TraceFile)
		})
	}
}

// checkTraceFile reads a written Chrome trace back: one run id, every
// child inside its parent.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Run         string `json:"run"`
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Args struct {
				Run    string `json:"run"`
				ID     int    `json:"id"`
				Parent int    `json:"parent"`
				Layer  string `json:"layer"`
				Start  int64  `json:"start_ns"`
				End    int64  `json:"end_ns"`
				Self   int64  `json:"self_ns"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.TraceEvents) < 50 {
		t.Fatalf("%d spans in %s", len(file.TraceEvents), path)
	}
	var spans []span
	for _, e := range file.TraceEvents {
		if e.Ph != "X" || e.Args.Run != file.Run || e.Args.Layer == "" {
			t.Errorf("span %q: ph %q run %q layer %q", e.Name, e.Ph, e.Args.Run, e.Args.Layer)
		}
		if e.Args.Self < 0 || e.Args.Self > e.Args.End-e.Args.Start {
			t.Errorf("span %q: self time %d of %d", e.Name, e.Args.Self, e.Args.End-e.Args.Start)
		}
		spans = append(spans, span{ID: e.Args.ID, Parent: e.Args.Parent, Name: e.Name, Start: e.Args.Start, End: e.Args.End})
	}
	if bad := wellFormed(spans); bad != nil {
		t.Errorf("span %d (%s) is not inside its parent", bad.ID, bad.Name)
	}
}

// TestVerifierCountsDamage is the negative control: a flipped byte in a
// text output, a record dropped from a BAM output and a perturbed
// histogram bin must each be counted as a failed operation, so that a
// failed_share of zero means something.
func TestVerifierCountsDamage(t *testing.T) {
	e := &env{seed: 5, reads: 2000, ranks: rankCount(), dir: t.TempDir()}
	in, err := buildInputs(e, "in", e.reads, cSAM)
	if err != nil {
		t.Fatal(err)
	}
	in.hashRecords()
	w, err := prepareFromSAM(e, in)
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]*cell{}
	tally := &tally{}
	for _, c := range w.cells {
		cells[c.metric] = c
		if err := c.run(); err != nil {
			t.Fatal(err)
		}
		tally.verify(c)
	}
	if tally.failed != 0 || tally.failedShare() != 0 {
		t.Fatalf("undamaged outputs failed verification: %v", tally.errs)
	}
	damaged := func(what, metric string) {
		t.Helper()
		before := tally.failed
		tally.verify(cells[metric])
		if tally.failed != before+1 || tally.failedShare() <= 0 {
			t.Errorf("%s was not counted as a failure", what)
		}
	}

	text, err := filepath.Glob(filepath.Join(e.dir, mToText, "out_p000.sam"))
	if err != nil || len(text) != 1 {
		t.Fatalf("text output: %v %v", text, err)
	}
	data, err := os.ReadFile(text[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if err := os.WriteFile(text[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	damaged("a flipped byte in a text output", mToText)

	shard := filepath.Join(e.dir, mToBAM, "out_p000.bam")
	dropLastRecord(t, shard)
	damaged("a record dropped from a BAM output", mToBAM)

	hist, err := parseq.CoverageParallel(in.sam, histRef, histBin, 1)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := append([]float64(nil), hist.Bins...)
	perturbed[len(perturbed)/3] += 0.5
	cells["perturbed"] = &cell{metric: mHist, check: func() error { return verifyBins(mHist, perturbed, hist.Bins, 0) }}
	damaged("a perturbed histogram bin", "perturbed")
}

// dropLastRecord rewrites a BAM file without its last record.
func dropLastRecord(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	br, err := bam.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := br.ReadAll()
	if err != nil || len(recs) < 2 {
		t.Fatalf("%d records, %v", len(recs), err)
	}
	var out bytes.Buffer
	bw, err := bam.NewWriter(&out, br.Header())
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs[:len(recs)-1] {
		if err := bw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
