package obs_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"parseq/internal/bamx"
	"parseq/internal/obs"
	"parseq/internal/simdata"
)

// TestBAMZCompressFeedsDeflateMetrics is the BAMZ row of the metric
// contract: BAMZ members are written and read by the bgzf codec, so a
// compress moves the bgzf.deflate.* family one block per data member, a
// readahead sweep moves bgzf.inflate.* and parpipe.bgzf.inflate.*, and
// nothing registers a bamz-prefixed name.
func TestBAMZCompressFeedsDeflateMetrics(t *testing.T) {
	reg := obs.New()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)

	d := simdata.Generate(simdata.DefaultConfig(3000))
	var plain, z bytes.Buffer
	if _, err := bamx.BuildFromRecords(&plain, d.Header, d.Records); err != nil {
		t.Fatal(err)
	}
	src, err := bamx.Open(bytes.NewReader(plain.Bytes()), int64(plain.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bamx.CompressBAMXWorkers(src, &z, bamx.DefaultRecsPerBlock, 2); err != nil {
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

	cf.StartReadahead(2)
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
		t.Errorf("bgzf.inflate.blocks = %d after a readahead sweep of %d members", got, members)
	}
	if got := reg.Counter("parpipe.bgzf.inflate.items").Value(); got < members {
		t.Errorf("parpipe.bgzf.inflate.items = %d after a readahead sweep of %d members", got, members)
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
}
