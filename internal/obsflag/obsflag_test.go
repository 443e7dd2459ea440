package obsflag

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parseq/internal/conv"
	"parseq/internal/simdata"
)

// TestMetricsSchema is the metrics-schema smoke test: a full in-process
// SAM→BAM conversion under a -metrics/-trace session must emit a
// metrics snapshot carrying the MPI wait totals, the codec pipeline
// gauges and derived rates, plus a non-empty trace.
func TestMetricsSchema(t *testing.T) {
	dir := t.TempDir()
	samPath := filepath.Join(dir, "in.sam")
	f, err := os.Create(samPath)
	if err != nil {
		t.Fatal(err)
	}
	d := simdata.Generate(simdata.DefaultConfig(2000))
	if err := d.WriteSAM(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	fs := flag.NewFlagSet("smoke", flag.ContinueOnError)
	flags := Register(fs)
	metricsPath := filepath.Join(dir, "metrics.json")
	tracePath := filepath.Join(dir, "trace.json")
	if err := fs.Parse([]string{"-metrics", metricsPath, "-trace", tracePath}); err != nil {
		t.Fatal(err)
	}

	sess, err := flags.Start()
	if err != nil {
		t.Fatal(err)
	}
	_, convErr := conv.ConvertSAMToBAM(samPath, conv.Options{
		Format: "bam", Cores: 2, OutDir: dir, OutPrefix: "smoke",
		CodecWorkers: 2,
	})
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if convErr != nil {
		t.Fatal(convErr)
	}

	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]struct {
			Value int64 `json:"value"`
			Max   int64 `json:"max"`
		} `json:"gauges"`
		Derived map[string]float64 `json:"derived"`
		Phases  map[string]any     `json:"phases"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}

	for _, name := range []string{"mpi.wait_ns", "mpi.rank0.sends", "bgzf.deflate.blocks"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q missing from metrics snapshot", name)
		}
	}
	// The runtime is sampled into the go.* gauges before the write.
	for _, name := range []string{"parpipe.bgzf.deflate.queue_depth", "go.goroutines", "go.mem_total_bytes"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("gauge %q missing from metrics snapshot", name)
		}
	}
	for _, name := range []string{"parpipe.bgzf.deflate.busy_fraction", "bgzf.deflate.blocks_per_sec"} {
		if _, ok := snap.Derived[name]; !ok {
			t.Errorf("derived metric %q missing from metrics snapshot", name)
		}
	}
	for _, phase := range []string{"partition", "convert"} {
		if _, ok := snap.Phases[phase]; !ok {
			t.Errorf("phase %q missing from metrics snapshot", phase)
		}
	}

	traceRaw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceRaw, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var spans int
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			spans++
			names[ev.Name] = true
		}
	}
	if spans == 0 {
		t.Fatal("trace has no complete (X) events")
	}
	for _, want := range []string{"partition", "convert"} {
		if !names[want] {
			t.Errorf("trace missing a %q span (have %v)", want, keys(names))
		}
	}
}

// TestDisabledSessionIsInert checks the zero-flag path: Start must not
// install a registry and Close must write nothing.
func TestDisabledSessionIsInert(t *testing.T) {
	fs := flag.NewFlagSet("inert", flag.ContinueOnError)
	flags := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	sess, err := flags.Start()
	if err != nil {
		t.Fatal(err)
	}
	if sess.Registry() != nil {
		t.Error("disabled session installed a registry")
	}
	if err := sess.Close(); err != nil {
		t.Errorf("Close on disabled session: %v", err)
	}
}

func keys(m map[string]bool) string {
	var s []string
	for k := range m {
		s = append(s, k)
	}
	return strings.Join(s, ",")
}
