package obs_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"parseq/internal/bamx"
	"parseq/internal/obs"
	"parseq/internal/simdata"
)

// TestBAMZCompressFeedsDeflateMetrics is the BAMZ row of the metric
// contract: BAMZ members are written and read by the bgzf codec, so a
// compress moves the bgzf.deflate.* family one block per data member and
// a sweep moves bgzf.inflate.* — whether the blocks run on the caller
// (one worker) or on a pool, which alone moves parpipe.bgzf.inflate.* —
// and nothing registers a bamz-prefixed name.
func TestBAMZCompressFeedsDeflateMetrics(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(3000))
	var plain bytes.Buffer
	if _, err := bamx.BuildFromRecords(&plain, d.Header, d.Records); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg := obs.New()
			obs.SetDefault(reg)
			defer obs.SetDefault(nil)

			src, err := bamx.Open(bytes.NewReader(plain.Bytes()), int64(plain.Len()))
			if err != nil {
				t.Fatal(err)
			}
			var z bytes.Buffer
			if _, err := bamx.CompressBAMXWorkers(src, &z, bamx.DefaultRecsPerBlock, workers); err != nil {
				t.Fatal(err)
			}
			cf, err := bamx.OpenCompressed(bytes.NewReader(z.Bytes()), int64(z.Len()))
			if err != nil {
				t.Fatal(err)
			}
			members := int64(cf.NumBlocks())
			if got := reg.Counter("bgzf.deflate.blocks").Value(); got != members {
				t.Errorf("bgzf.deflate.blocks = %d after compressing %d members", got, members)
			}
			area := int64(plain.Len()) - bamx.HeaderSize(d.Header)
			if got := reg.Counter("bgzf.deflate.bytes_in").Value(); got != area {
				t.Errorf("bgzf.deflate.bytes_in = %d, want the %d-byte record area", got, area)
			}

			if workers > 1 {
				cf.StartReadahead(workers)
			}
			defer cf.Close()
			sc := cf.File().Scan(0, cf.NumRecords())
			for {
				_, err := sc.NextRaw()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := reg.Counter("bgzf.inflate.blocks").Value(); got < members {
				t.Errorf("bgzf.inflate.blocks = %d after a sweep of %d members", got, members)
			}
			pooled := reg.Counter("parpipe.bgzf.inflate.items").Value()
			if workers > 1 && pooled < members {
				t.Errorf("parpipe.bgzf.inflate.items = %d after a readahead sweep of %d members", pooled, members)
			}
			if workers == 1 && pooled != 0 {
				t.Errorf("parpipe.bgzf.inflate.items = %d after an inline sweep", pooled)
			}

			snap := reg.Snapshot()
			for name := range snap.Counters {
				if strings.Contains(name, "bamz") {
					t.Errorf("counter %s: BAMZ traffic belongs to the bgzf families", name)
				}
			}
			for name := range snap.Histograms {
				if strings.Contains(name, "bamz") {
					t.Errorf("histogram %s: BAMZ traffic belongs to the bgzf families", name)
				}
			}
		})
	}
}
