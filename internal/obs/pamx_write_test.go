package obs_test

import (
	"io"
	"testing"

	"parseq/internal/formats/pamx"
	"parseq/internal/obs"
	"parseq/internal/simdata"
)

// TestPAMXWriteFeedsDeflateMetrics is the PAMX-write row of the metric
// contract: the group writer deflates its block jobs outside the BGZF
// writers, and must still move the bgzf.deflate.* family and the shared
// pool's throughput gauge — all under names the inventory already holds.
func TestPAMXWriteFeedsDeflateMetrics(t *testing.T) {
	reg := obs.New()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)

	d := simdata.Generate(simdata.DefaultConfig(3000))
	// 16 KiB groups: well over the 32 blocks one sizer window takes.
	w, err := pamx.NewWriter(io.Discard, d.Header, pamx.Options{GroupBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Records {
		if err := w.Write(&d.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{
		"bgzf.deflate.blocks", "bgzf.deflate.bytes_in", "bgzf.deflate.bytes_out",
		"bgzf.deflate.latency_ns", "bgzf.shared_pool.throughput", "bgzf.shared.workers",
	} {
		if _, ok := obs.MetricHelp(name); !ok {
			t.Errorf("%s missing from the canonical inventory", name)
		}
	}
	blocks := reg.Counter("bgzf.deflate.blocks").Value()
	if blocks < int64(w.Groups()) {
		t.Errorf("bgzf.deflate.blocks = %d after writing %d groups", blocks, w.Groups())
	}
	if got := reg.Histogram("bgzf.deflate.latency_ns").Count(); got != blocks {
		t.Errorf("bgzf.deflate.latency_ns holds %d observations for %d blocks", got, blocks)
	}
	in, out := reg.Counter("bgzf.deflate.bytes_in").Value(), reg.Counter("bgzf.deflate.bytes_out").Value()
	if in <= 0 || out <= 0 || out >= in {
		t.Errorf("bgzf.deflate bytes_in = %d, bytes_out = %d; want 0 < out < in", in, out)
	}
	if got := reg.Gauge("bgzf.shared_pool.throughput").Value(); got <= 0 {
		t.Errorf("bgzf.shared_pool.throughput = %d after %d block jobs", got, blocks)
	}
}
