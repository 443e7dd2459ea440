package main

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 1}, 2.5},
		{[]float64{9, 1, 5}, 5},
		{[]float64{7, 1, 3, 5}, 4},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

// The expected quartiles are what Python's statistics.quantiles(v, n=4)
// prints for the same values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 9, 2, 8, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2, 4}, 1, 4},
		{[]float64{1, 3}, 0.5, 3.5}, // extrapolates, as Python does
		{[]float64{2}, 2, 2},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentileNeedsSamplesBeyondIt(t *testing.T) {
	series := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // n..1, unsorted
		}
		return v
	}
	// 240 latencies: p95 is the 228th smallest, 12 lie beyond it.
	if v, ok := percentile(series(240), 0.95); !ok || v != 228 {
		t.Errorf("p95 of 240 = %g, %v; want 228, true", v, ok)
	}
	// 100 latencies leave 5 beyond p95: refused.
	if _, ok := percentile(series(100), 0.95); ok {
		t.Error("p95 of 100 samples was not refused")
	}
	if v, ok := percentile(series(100), 0.5); !ok || v != 50 {
		t.Errorf("p50 of 100 = %g, %v; want 50, true", v, ok)
	}
	if v, ok := percentile(series(200), 0.95); !ok || v != 190 {
		t.Errorf("p95 of 200 = %g, %v; want 190, true", v, ok)
	}
	if _, ok := percentile(nil, 0.95); ok {
		t.Error("p95 of nothing was not refused")
	}
}

func TestSummarizeRounds(t *testing.T) {
	// A sample counts as its fastest call, so a slow tail inside the
	// samples leaves the value where it was.
	c := summarizeRounds([][]float64{{1, 1, 1}, {1, 9, 1}, {7, 8, 1}}, "s")
	if c.Median != 1 || c.N != 3 || c.Calls != 9 || c.Q1 != 1 || c.Q3 != 1 {
		t.Errorf("summarizeRounds = %+v", c)
	}
	// Samples that are slow as a whole move it.
	c = summarizeRounds([][]float64{{2, 3}, {4, 5}, {6, 9}}, "s")
	if c.Median != 4 || c.Q1 != 2 || c.Q3 != 6 {
		t.Errorf("summarizeRounds = %+v", c)
	}
	// A round whose calls all failed contributes nothing.
	c = summarizeRounds([][]float64{{2}, {}, {4}}, "s")
	if c.Median != 3 || c.N != 2 || c.Calls != 2 {
		t.Errorf("summarizeRounds with an empty round = %+v", c)
	}
}

func TestMeasureCountsFailuresAndVerifies(t *testing.T) {
	calls, checks := 0, 0
	good := &cell{metric: "good_s", inner: 3, run: func() error { calls++; return nil }, check: func() error { checks++; return nil }}
	bad := &cell{metric: "bad_s", inner: 1, run: func() error { return errors.New("boom") }}
	tally := &tally{}
	out := measure([]*cell{good, bad}, 0, 4, tally)
	if len(out["good_s"]) != 4 || len(out["good_s"][0]) != 3 {
		t.Errorf("good cell: %d rounds of %d calls, want 4 of 3", len(out["good_s"]), len(out["good_s"][0]))
	}
	if calls != 15 || checks != 2 { // warm-up + 4 rounds; first and last sample verified
		t.Errorf("%d calls, %d checks; want 15, 2", calls, checks)
	}
	if got := summarizeRounds(out["bad_s"], "s"); got.Calls != 0 {
		t.Errorf("failed calls were timed: %+v", got)
	}
	if tally.failed != 5 || tally.attempted != 15+5+2 {
		t.Errorf("tally = %d failed of %d; want 5 of 22", tally.failed, tally.attempted)
	}
}

func spansOf(ivs ...[4]int64) []span {
	var out []span
	for _, iv := range ivs {
		out = append(out, span{ID: int(iv[0]), Parent: int(iv[1]), Start: iv[2], End: iv[3]})
	}
	return out
}

func TestSelfTime(t *testing.T) {
	// id, parent, start, end
	spans := spansOf(
		[4]int64{1, 0, 0, 100}, // root
		[4]int64{2, 1, 10, 40}, // child
		[4]int64{3, 2, 15, 25}, // grandchild: counts against 2, not 1
		[4]int64{4, 1, 30, 60}, // overlaps child 2 over [30,40)
		[4]int64{5, 1, 70, 80},
		[4]int64{6, 1, 72, 78}, // wholly inside sibling 5
	)
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (50 + 10), // children cover [10,60) and [70,80)
		2: 30 - 10,
		3: 10,
		4: 30,
		5: 10,
		6: 6,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestWellFormed(t *testing.T) {
	if bad := wellFormed(spansOf([4]int64{1, 0, 0, 10}, [4]int64{2, 1, 2, 8})); bad != nil {
		t.Errorf("sound spans rejected: %+v", bad)
	}
	for name, spans := range map[string][]span{
		"child outlives parent": spansOf([4]int64{1, 0, 0, 10}, [4]int64{2, 1, 2, 12}),
		"child before parent":   spansOf([4]int64{1, 0, 5, 10}, [4]int64{2, 1, 2, 8}),
		"never closed":          spansOf([4]int64{1, 0, 5, -1}),
		"unknown parent":        spansOf([4]int64{2, 7, 5, 6}),
	} {
		if wellFormed(spans) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTracerNestsAndTimes(t *testing.T) {
	tr := newTracer("run-1")
	root := tr.start(0, "root", "workload")
	child := tr.start(root, "child", "layer")
	tr.end(child, map[string]float64{"records": 3})
	tr.end(root, nil)
	if bad := wellFormed(tr.spans); bad != nil {
		t.Fatalf("span %+v is not inside its parent", bad)
	}
	if tr.spans[1].Parent != root || tr.spans[1].Counts["records"] != 3 || tr.seconds(root) < tr.seconds(child) {
		t.Errorf("spans = %+v", tr.spans)
	}
}

func TestJudge(t *testing.T) {
	cellOf := func(median, iqr float64) cellResult {
		return cellResult{Median: median, Q1: median * (1 - iqr/2), Q3: median * (1 + iqr/2), N: 9}
	}
	for _, c := range []struct {
		name        string
		a, b        cellResult
		better      string
		bound       float64
		wantVerdict string
	}{
		{"inside the bound", cellOf(1, 0.02), cellOf(1.05, 0.02), "lower", 0.1, vUnchanged},
		{"slower than the bound", cellOf(1, 0.02), cellOf(1.2, 0.02), "lower", 0.1, vRegressed},
		{"faster than the bound", cellOf(1, 0.02), cellOf(0.8, 0.02), "lower", 0.1, vImproved},
		{"throughput fell", cellOf(20, 0.02), cellOf(15, 0.02), "higher", 0.1, vRegressed},
		{"throughput rose", cellOf(20, 0.02), cellOf(25, 0.02), "higher", 0.1, vImproved},
		{"too noisy to call unchanged", cellOf(1, 0.02), cellOf(1.05, 0.3), "lower", 0.1, vUnresolved},
		{"noisy and still outside", cellOf(1, 0.3), cellOf(1.5, 0.3), "lower", 0.1, vRegressed},
	} {
		if got, _ := judge(c.a, c.b, c.better, c.bound); got != c.wantVerdict {
			t.Errorf("%s: %s, want %s", c.name, got, c.wantVerdict)
		}
	}
}

func TestCheckResults(t *testing.T) {
	spec := &benchmarkSpec{}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, boundedMetric{m.Name, m.Unit, m.Better, 0.1})
	}
	set := func(scale float64) *resultSet {
		s := &resultSet{Workloads: map[string]*result{}}
		for _, w := range workloadNames {
			r := &result{Workload: w, Attempted: 10, EndToEnd: map[string]cellResult{}}
			for _, m := range matrix[w] {
				r.EndToEnd[m] = cellResult{Median: scale, Q1: scale * 0.99, Q3: scale * 1.01, N: 9}
			}
			s.Workloads[w] = r
		}
		return s
	}
	var out bytes.Buffer
	if code := checkResults(spec, set(1), set(1.04), &out); code != 0 {
		t.Errorf("sets within the bound: exit %d\n%s", code, out.String())
	}

	out.Reset()
	b := set(1)
	c := b.Workloads[wFromBAM].EndToEnd[mFlagstat]
	c.Median = 1.3
	b.Workloads[wFromBAM].EndToEnd[mFlagstat] = c
	if code := checkResults(spec, set(1), b, &out); code == 0 || !strings.Contains(out.String(), "from_bam") || !strings.Contains(out.String(), "flagstat_s") {
		t.Errorf("a cell 30%% slower: exit %d\n%s", code, out.String())
	}

	out.Reset()
	b = set(1)
	c = b.Workloads[wHistogram].EndToEnd[mFDR]
	c.Q1, c.Q3 = 0.8, 1.2
	b.Workloads[wHistogram].EndToEnd[mFDR] = c
	if code := checkResults(spec, set(1), b, &out); code != 0 || !strings.Contains(out.String(), vUnresolved) {
		t.Errorf("a noisy cell: exit %d\n%s", code, out.String())
	}

	out.Reset()
	b = set(1)
	b.Workloads[wDaemon].Failed, b.Workloads[wDaemon].FailedShare = 1, 0.1
	if code := checkResults(spec, set(1), b, &out); code == 0 || !strings.Contains(out.String(), "failed_share") {
		t.Errorf("a failed operation: exit %d\n%s", code, out.String())
	}

	out.Reset()
	b = set(1)
	delete(b.Workloads, wFromPAMX)
	if code := checkResults(spec, set(1), b, &out); code == 0 {
		t.Errorf("a missing workload: exit %d\n%s", code, out.String())
	}
}
