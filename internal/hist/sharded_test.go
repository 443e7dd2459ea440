package hist

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"parseq/internal/bam"
	"parseq/internal/bamx"
	"parseq/internal/mpinet"
	"parseq/internal/shard"
	"parseq/internal/simdata"
)

// writeShardDataset materialises a deterministic dataset as BAM (+BAI,
// so a multi-shard generation is index shards) and BAMX (+BAIX) files.
func writeShardDataset(t testing.TB, n int) (bamPath, bamxPath string, d *simdata.Dataset) {
	t.Helper()
	dir := t.TempDir()
	d = simdata.Generate(simdata.DefaultConfig(n))
	bamPath = filepath.Join(dir, "data.bam")
	f, err := os.Create(bamPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBAM(f); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	bai, err := os.Create(bamPath + ".bai")
	if err != nil {
		t.Fatal(err)
	}
	if err := bam.WriteIndexFile(f, bai); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*os.File{f, bai} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	bamxPath = filepath.Join(dir, "data.bamx")
	xf, err := os.Create(bamxPath)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := bamx.BuildFromRecords(xf, d.Header, d.Records)
	if err != nil {
		t.Fatal(err)
	}
	if err := xf.Close(); err != nil {
		t.Fatal(err)
	}
	ixf, err := os.Create(filepath.Join(dir, "data.baix"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.WriteTo(ixf); err != nil {
		t.Fatal(err)
	}
	if err := ixf.Close(); err != nil {
		t.Fatal(err)
	}
	return bamPath, bamxPath, d
}

const shardBinSize = 200

// TestFromProviderIdentity: the sharded coverage histogram must be
// byte-identical to the sequential in-memory accumulation at every
// shard count and rank count, for both providers. Every contribution
// is an integer bin increment, so the float64 merge is exact and
// order-independent — this is what the test pins down.
func TestFromProviderIdentity(t *testing.T) {
	bamPath, bamxPath, d := writeShardDataset(t, 3000)
	rname := d.Header.Refs[0].Name
	want, err := Coverage(d.Records, d.Header, rname, shardBinSize)
	if err != nil {
		t.Fatalf("Coverage: %v", err)
	}

	for _, tc := range []struct {
		name string
		p    shard.Provider
	}{
		{"bam", shard.NewBAMProvider(bamPath)},
		{"bamx", shard.NewBAMXProvider(bamxPath)},
	} {
		defer tc.p.Close()
		for _, shards := range []int{1, 2, 4, 8} {
			for _, ranks := range []int{1, 2} {
				got, err := FromProvider(tc.p, rname, shardBinSize, shard.Config{
					Ranks:        ranks,
					Workers:      3,
					TargetShards: shards,
				})
				if err != nil {
					t.Fatalf("%s shards=%d ranks=%d: %v", tc.name, shards, ranks, err)
				}
				if !reflect.DeepEqual(got.Bins, want.Bins) {
					t.Fatalf("%s shards=%d ranks=%d: bins differ", tc.name, shards, ranks)
				}
				if got.RName != want.RName || got.BinSize != want.BinSize {
					t.Fatalf("%s: histogram shape differs", tc.name)
				}
			}
		}
	}

	if _, err := FromProvider(shard.NewBAMProvider(bamPath), "chrNope", shardBinSize, shard.Config{}); err == nil {
		t.Fatal("unknown reference did not error")
	}
}

// TestFromProviderIdentityTCP: the same identity with shard descriptors
// and bin partials crossing a real loopback TCP mesh.
func TestFromProviderIdentityTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP world in -short mode")
	}
	bamPath, _, d := writeShardDataset(t, 2000)
	rname := d.Header.Refs[0].Name
	want, err := Coverage(d.Records, d.Header, rname, shardBinSize)
	if err != nil {
		t.Fatalf("Coverage: %v", err)
	}
	const worldSize = 2
	for _, shards := range []int{1, 2, 4, 8} {
		var mu sync.Mutex
		var rank0 *Histogram
		runHistLoopbackWorld(t, worldSize, func(w *mpinet.World) error {
			p := shard.NewBAMProvider(bamPath)
			defer p.Close()
			got, err := FromProvider(p, rname, shardBinSize, shard.Config{
				Ranks:        worldSize,
				Workers:      2,
				TargetShards: shards,
				Launch:       w.Launcher(),
			})
			if err != nil {
				return err
			}
			if w.Rank() == 0 {
				mu.Lock()
				rank0 = got
				mu.Unlock()
				return nil
			}
			// Only rank 0 receives the sum; the others get all-zero bins.
			for i, v := range got.Bins {
				if v != 0 {
					return fmt.Errorf("rank %d bin %d = %g, want 0", w.Rank(), i, v)
				}
			}
			return nil
		})
		if rank0 == nil {
			t.Fatalf("shards=%d: rank 0 produced no result", shards)
		}
		if !reflect.DeepEqual(rank0.Bins, want.Bins) {
			t.Fatalf("shards=%d over TCP: bins differ", shards)
		}
	}
}

// runHistLoopbackWorld forms a loopback TCP world and runs fn once per
// rank with its world.
func runHistLoopbackWorld(t *testing.T, size int, fn func(w *mpinet.World) error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := ln.Addr().String()
	ln.Close()
	errs := make([]error, size)
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(rank int) {
			defer wg.Done()
			w, err := mpinet.Connect(mpinet.Config{
				Rank:        rank,
				World:       size,
				Coord:       coord,
				DialTimeout: 10 * time.Second,
				JoinTimeout: 30 * time.Second,
				WaitTimeout: 30 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			defer w.Close()
			errs[rank] = fn(w)
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}
