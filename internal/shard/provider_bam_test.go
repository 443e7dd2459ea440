package shard

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"parseq/internal/bgzf"
	"parseq/internal/obs"
	"parseq/internal/simdata"
)

// TestBAMShardsInflateOnce reads bgzf's inflate counters around drains
// of an indexed BAM — whole-file at several piece counts, and one
// reference — and bounds the bytes inflated by the members under the
// selection plus one member per shard: the block a shard shares with
// the one before it. A shard reader that decoded the header again, or
// read its neighbour's blocks, would break the bound. Each index shard
// of the reference is bounded alone too, by the members from its first
// chunk's block through its last chunk's end block: a region that read
// on past its chunks would break that.
func TestBAMShardsInflateOnce(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(40000))
	path := filepath.Join(t.TempDir(), "data.bam")
	writeBAM(t, path, d.Header, d.Records, true)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// spanned sums the ISIZE of the members starting in [lo, hi].
	spanned := func(lo, hi int64) (n int64) {
		for at := 0; at < len(file); {
			next := at + int(binary.LittleEndian.Uint16(file[at+16:])) + 1
			if int64(at) >= lo && int64(at) <= hi {
				n += int64(binary.LittleEndian.Uint32(file[next-4:]))
			}
			at = next
		}
		return n
	}

	reg := obs.New()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	inflated := reg.Counter("bgzf.inflate.bytes_out")
	p := NewBAMProvider(path)
	defer p.Close()
	check := func(name string, opts Options, under int64, want map[string]int, bound func(Shard) int64) {
		t.Helper()
		shards, err := p.GenerateShards(opts)
		if err != nil || len(shards) < 2 {
			t.Fatalf("%s: %d shards, %v; want several", name, len(shards), err)
		}
		read := map[string]int{}
		var got int64
		for _, sh := range shards {
			before := inflated.Value()
			for k, n := range drainShards(t, p, []Shard{sh}) {
				read[k] += n
			}
			n := inflated.Value() - before
			got += n
			if bound == nil {
				continue
			}
			t.Logf("%s: shard %v inflates %d bytes", name, sh, n)
			if b := bound(sh); n > b {
				t.Errorf("%s: shard %v inflates %d bytes, more than the %d of the members under its chunks", name, sh, n, b)
			}
		}
		checkMultiset(t, name, read, want)
		t.Logf("%s: %d shards inflate %d bytes, %.3f× the %d under the selection", name, len(shards), got, float64(got)/float64(under), under)
		if bound := under + int64(len(shards))*bgzf.MaxBlockSize; got > bound {
			t.Errorf("%s: %d shards inflate %d bytes, more than the %d under the selection plus a member each", name, len(shards), got, under)
		}
	}
	for _, target := range []int{2, 3, 16} {
		check(fmt.Sprintf("whole file at %d", target), Options{TargetShards: target}, spanned(0, int64(len(file))), wantMultiset(d), nil)
	}
	ref := d.Header.Refs[0].Name
	want := map[string]int{}
	for i := range d.Records {
		if d.Records[i].RName == ref {
			want[recordKey(&d.Records[i])]++
		}
	}
	beg, end, _ := p.index.RefSpan(0)
	check(ref, Options{Refs: []string{ref}}, spanned(beg.Block(), end.Block()), want, func(sh Shard) int64 {
		chunks := p.index.Query(0, sh.Beg, sh.End)
		return spanned(chunks[0].Beg.Block(), chunks[len(chunks)-1].End.Block())
	})
}
