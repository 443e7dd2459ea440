package flagstat

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
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

// runLoopbackWorld forms a real loopback TCP world of size single-rank
// processes-in-goroutines and runs fn once per rank with its world.
func runLoopbackWorld(t *testing.T, size int, fn func(w *mpinet.World) error) {
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

// BAMFile computes flagstat over a BAM file with one sequential
// whole-file scan on the undecoded body path: the single-stream
// reference the sharded driver is checked against.
func BAMFile(path string) (Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return Stats{}, err
	}
	defer f.Close()
	br, err := bam.NewReader(f)
	if err != nil {
		return Stats{}, err
	}
	defer br.Close()
	var s Stats
	for {
		body, err := br.ReadBody()
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return s, err
		}
		s.AddBody(body)
	}
}

// TestShardedIdentity: the sharded flagstat must equal the sequential
// tally at every shard count, worker count and rank count on the
// in-process channel world, for both providers.
func TestShardedIdentity(t *testing.T) {
	bamPath, bamxPath, d := writeShardDataset(t, 3000)
	want := Of(d.Records)

	seq, err := BAMFile(bamPath)
	if err != nil {
		t.Fatalf("BAMFile: %v", err)
	}
	if seq != want {
		t.Fatalf("sequential BAM scan:\n got %+v\nwant %+v", seq, want)
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
				got, err := Sharded(tc.p, shard.Config{
					Ranks:        ranks,
					Workers:      3,
					TargetShards: shards,
				})
				if err != nil {
					t.Fatalf("%s shards=%d ranks=%d: %v", tc.name, shards, ranks, err)
				}
				if got != want {
					t.Fatalf("%s shards=%d ranks=%d:\n got %+v\nwant %+v",
						tc.name, shards, ranks, got, want)
				}
			}
		}
	}
}

// TestShardedIdentityTCP: the same identity over a real loopback TCP
// world — shard descriptors scatter and partial tallies gather across
// the mesh, and rank 0's merged result must still match the sequential
// tally at every shard count.
func TestShardedIdentityTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP world in -short mode")
	}
	bamPath, _, d := writeShardDataset(t, 2000)
	want := Of(d.Records)
	const worldSize = 2
	for _, shards := range []int{1, 2, 4, 8} {
		var mu sync.Mutex
		var rank0 *Stats
		runLoopbackWorld(t, worldSize, func(w *mpinet.World) error {
			p := shard.NewBAMProvider(bamPath)
			defer p.Close()
			got, err := Sharded(p, shard.Config{
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
				rank0 = &got
				mu.Unlock()
			} else if got != (Stats{}) {
				// Only rank 0 receives the sum; the others get zero Stats.
				return fmt.Errorf("rank %d returned %+v, want zero Stats", w.Rank(), got)
			}
			return nil
		})
		if rank0 == nil {
			t.Fatalf("shards=%d: rank 0 produced no result", shards)
		}
		if *rank0 != want {
			t.Fatalf("shards=%d over TCP:\n got %+v\nwant %+v", shards, *rank0, want)
		}
	}
}

// TestAddBodyEquivalence: AddBody over encoded bodies must tally
// exactly like Add over the decoded records.
func TestAddBodyEquivalence(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(1000))
	want := Of(d.Records)
	var got Stats
	var buf []byte
	for i := range d.Records {
		var err error
		buf, err = bam.EncodeRecord(buf[:0], &d.Records[i], d.Header)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		// EncodeRecord prepends the block_size word; the body follows.
		got.AddBody(buf[4:])
	}
	if got != want {
		t.Fatalf("AddBody tally:\n got %+v\nwant %+v", got, want)
	}
}
