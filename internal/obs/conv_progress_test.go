package obs_test

import (
	"os"
	"path/filepath"
	"testing"

	"parseq/internal/bamx"
	"parseq/internal/conv"
	"parseq/internal/obs"
	"parseq/internal/simdata"
)

// TestConvertBAMXFeedsLiveProgress is the record-source row of the
// metric contract: /progress reads conv.records, conv.bytes_in,
// conv.bytes_out and conv.bytes_total, and a conversion that does not
// start from SAM text must move them too — to the totals its Stats
// report.
func TestConvertBAMXFeedsLiveProgress(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(600))
	dir := t.TempDir()
	bamxPath := filepath.Join(dir, "d.bamx")
	f, err := os.Create(bamxPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bamx.BuildFromRecords(f, d.Header, d.Records); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	res, err := conv.ConvertBAMX(bamxPath, "", conv.Options{Format: "bed", Cores: 2, OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Records != 600 || res.Stats.BytesIn == 0 || res.Stats.BytesOut == 0 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	for name, want := range map[string]int64{
		"conv.records":   res.Stats.Records,
		"conv.bytes_in":  res.Stats.BytesIn,
		"conv.bytes_out": res.Stats.BytesOut,
	} {
		if _, ok := obs.MetricHelp(name); !ok {
			t.Errorf("%s missing from the canonical inventory", name)
		}
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d after the run, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("conv.bytes_total").Value(); got != res.Stats.BytesIn {
		t.Errorf("conv.bytes_total = %d, want %d", got, res.Stats.BytesIn)
	}
}
