package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsFree(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(1)
	if g.Value() != 0 || g.Max() != 0 {
		t.Error("nil gauge accumulated")
	}
	h := r.Histogram("h")
	h.Observe(3)
	if h.Count() != 0 {
		t.Error("nil histogram accumulated")
	}
	sp := r.StartSpan(0, 0, "phase")
	if d := sp.End(); d != 0 {
		t.Errorf("nil span duration = %v", d)
	}
	wsp := r.StartWorkerSpan(0, 0, "w")
	wsp.End()
	if r.PhaseWall("phase") != 0 {
		t.Error("nil registry recorded a phase")
	}
	r.EnableTracing(8)
	r.SetProcessName(0, "x")
	if r.AllocPID("p") != 0 {
		t.Error("nil AllocPID returned a pid")
	}
	if r.TracingEnabled() {
		t.Error("nil registry claims tracing")
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	r := New()
	c := r.Counter("conv.records")
	if c != r.Counter("conv.records") {
		t.Error("Counter not memoised")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}

	g := r.Gauge("queue")
	g.Set(3)
	g.Set(9)
	g.Set(2)
	if g.Value() != 2 || g.Max() != 9 {
		t.Errorf("gauge = %d max %d, want 2 max 9", g.Value(), g.Max())
	}

	h := r.Histogram("lat")
	h.Observe(1500)             // sub-µs floor bucket
	h.Observe(3 * 1000)         // 3µs
	h.Observe(40 * 1000 * 1000) // 40ms
	if h.Count() != 3 {
		t.Errorf("hist count = %d", h.Count())
	}
	if h.Sum() != 1500+3000+40e6 {
		t.Errorf("hist sum = %d", h.Sum())
	}
}

func TestHistogramBuckets(t *testing.T) {
	if histBucketOf(0) != 0 || histBucketOf(1023) != 0 {
		t.Error("sub-floor values must land in bucket 0")
	}
	if histBucketOf(1024) != 1 {
		t.Errorf("2^10 lands in bucket %d, want 1", histBucketOf(1024))
	}
	if histBucketOf(1<<62) != histBuckets-1 {
		t.Error("huge values must land in the overflow bucket")
	}
	if BucketBound(histBuckets-1) != -1 {
		t.Error("overflow bucket must report -1 bound")
	}
	if BucketBound(0) != 1<<histMinExp {
		t.Errorf("bucket 0 bound = %d", BucketBound(0))
	}
}

func TestSpansAndPhaseWall(t *testing.T) {
	r := New()
	sp := r.StartSpan(0, 0, "convert")
	time.Sleep(2 * time.Millisecond)
	d := sp.End()
	if d < 2*time.Millisecond {
		t.Errorf("span duration = %v", d)
	}
	sp2 := r.StartSpan(1, 0, "convert")
	time.Sleep(time.Millisecond)
	sp2.End()
	wall := r.PhaseWall("convert")
	if wall < 3*time.Millisecond {
		t.Errorf("phase wall = %v, want ≥ 3ms (spans are sequential)", wall)
	}
	if got := r.PhaseNames(); len(got) != 1 || got[0] != "convert" {
		t.Errorf("PhaseNames = %v", got)
	}
}

func TestPhaseSetWithoutRegistry(t *testing.T) {
	ps := NewPhaseSet(nil)
	sp := ps.Start(0, "partition")
	time.Sleep(time.Millisecond)
	if d := sp.End(); d < time.Millisecond {
		t.Errorf("phase span duration = %v", d)
	}
	if ps.Wall("partition") < time.Millisecond {
		t.Errorf("wall = %v", ps.Wall("partition"))
	}
	if ps.Wall("missing") != 0 {
		t.Error("missing phase has nonzero wall")
	}
	var nilPS *PhaseSet
	if nilPS.Wall("x") != 0 {
		t.Error("nil PhaseSet wall")
	}
	var zero PhaseSpan
	if zero.End() != 0 {
		t.Error("zero PhaseSpan End")
	}
}

func TestPhaseSetMirrorsIntoRegistry(t *testing.T) {
	r := New()
	r.EnableTracing(64)
	ps := NewPhaseSet(r)
	sp := ps.Start(2, "preprocess")
	sp.End()
	if r.PhaseWall("preprocess") <= 0 {
		t.Error("phase not mirrored into registry")
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"preprocess"`) {
		t.Error("trace missing mirrored span")
	}
}

func TestTraceExport(t *testing.T) {
	r := New()
	r.EnableTracing(4)
	for rank := 0; rank < 3; rank++ {
		sp := r.StartSpan(rank, 0, "convert")
		sp.End()
	}
	pid := r.AllocPID("pipe:bgzf.deflate")
	wsp := r.StartWorkerSpan(pid, 1, "bgzf.deflate")
	wsp.End()

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int32          `json:"pid"`
			TID  int32          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	pids := make(map[int32]bool)
	spans := 0
	metas := 0
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "X":
			pids[e.PID] = true
			spans++
		case "M":
			metas++
			if e.Name != "process_name" {
				t.Errorf("unexpected metadata %q", e.Name)
			}
		}
	}
	if spans != 4 {
		t.Errorf("spans = %d, want 4", spans)
	}
	if len(pids) != 4 {
		t.Errorf("distinct pids = %d, want 4 (3 ranks + 1 pool)", len(pids))
	}
	if metas != 4 {
		t.Errorf("process_name records = %d, want 4", metas)
	}
}

func TestRingWraps(t *testing.T) {
	r := New()
	r.EnableTracing(4)
	for i := 0; i < 10; i++ {
		sp := r.StartSpan(0, 0, "s")
		sp.End()
	}
	tr := r.tracer.Load()
	evs := tr.ringFor(0).snapshot()
	if len(evs) != 4 {
		t.Errorf("ring kept %d events, want 4", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].startNS < evs[i-1].startNS {
			t.Error("ring snapshot out of order")
		}
	}
}

func TestSnapshotDerivedMetrics(t *testing.T) {
	r := New()
	r.Counter("parpipe.bgzf.deflate.busy_ns").Add(300)
	r.Counter("parpipe.bgzf.deflate.idle_ns").Add(100)
	r.Counter("bgzf.deflate.blocks").Add(50)
	r.Counter("parpipe.bgzf.deflate.items").Add(50)
	SampleRuntimeGauges(r)
	s := r.Snapshot()
	if f := s.Derived["parpipe.bgzf.deflate.busy_fraction"]; f != 0.75 {
		t.Errorf("busy_fraction = %v, want 0.75", f)
	}
	if _, ok := s.Derived["bgzf.deflate.blocks_per_sec"]; !ok {
		t.Error("blocks_per_sec not derived")
	}
	if _, ok := s.Derived["parpipe.bgzf.deflate.items_per_sec"]; !ok {
		t.Error("items_per_sec not derived")
	}
	// The runtime rides the snapshot as the sampler's go.* gauges.
	if s.Gauges["go.goroutines"].Value <= 0 || s.Gauges["go.mem_total_bytes"].Value <= 0 {
		t.Errorf("runtime gauges missing: go.goroutines %+v, go.mem_total_bytes %+v",
			s.Gauges["go.goroutines"], s.Gauges["go.mem_total_bytes"])
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := New()
	r.Counter("mpi.rank0.barrier_wait_ns").Add(123)
	r.Gauge("parpipe.q.queue_depth").Set(5)
	r.Histogram("bgzf.inflate.latency_ns").Observe(2048)
	sp := r.StartSpan(0, 0, "convert")
	sp.End()

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	if s.Counters["mpi.rank0.barrier_wait_ns"] != 123 {
		t.Error("counter lost in round trip")
	}
	if s.Gauges["parpipe.q.queue_depth"].Max != 5 {
		t.Error("gauge lost in round trip")
	}
	if s.Histograms["bgzf.inflate.latency_ns"].Count != 1 {
		t.Error("histogram lost in round trip")
	}
	if _, ok := s.Phases["convert"]; !ok {
		t.Error("phase lost in round trip")
	}
	if s.WallNS <= 0 {
		t.Error("wall_ns not set")
	}
}

func TestWriteSummary(t *testing.T) {
	r := New()
	sp := r.StartSpan(0, 0, "partition")
	sp.End()
	r.Counter("mpi.wait_ns").Add(1000)
	r.Counter("parpipe.x.busy_ns").Add(10)
	r.Counter("parpipe.x.idle_ns").Add(10)
	var buf bytes.Buffer
	if err := r.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"partition", "mpi.wait_ns", "busy_fraction"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultRegistry(t *testing.T) {
	if Default() != nil {
		t.Fatal("default registry non-nil at start")
	}
	r := New()
	SetDefault(r)
	defer SetDefault(nil)
	if Default() != r {
		t.Error("SetDefault did not install")
	}
}

func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	stop, err := StartCPUProfile(dir + "/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := WriteHeapProfile(dir + "/heap.pprof"); err != nil {
		t.Fatal(err)
	}
}
