package hist

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"parseq/internal/mpinet"
	"parseq/internal/shard"
)

// writePAMXDataset converts a BAM file into PAMX with at least target
// column groups (the group-record knob; reference changes add more).
func writePAMXDataset(t testing.TB, bamPath string, n, target int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.pamx")
	groupRecords := (n + target - 1) / target
	if _, err := shard.Rewrite(bamPath, path, shard.WithGroupCaps(0, groupRecords)); err != nil {
		t.Fatalf("FromBAM: %v", err)
	}
	return path
}

// TestPAMXProjectionIdentity: the coverage histogram over a columnar
// PAMX provider — projected to coordinates plus CIGARs, with names,
// sequences, qualities and tags never inflated — must be bin-identical
// to the sequential in-memory accumulation at every group structure and
// rank count.
func TestPAMXProjectionIdentity(t *testing.T) {
	const n = 3000
	bamPath, _, d := writeShardDataset(t, n)
	rname := d.Header.Refs[0].Name
	want, err := Coverage(d.Records, d.Header, rname, shardBinSize)
	if err != nil {
		t.Fatalf("Coverage: %v", err)
	}

	for _, target := range []int{1, 2, 4, 8} {
		pamxPath := writePAMXDataset(t, bamPath, n, target)
		for _, ranks := range []int{1, 2} {
			p := shard.NewPAMXProvider(pamxPath)
			got, err := FromProvider(p, rname, shardBinSize, shard.Config{Ranks: ranks, Workers: 3})
			p.Close()
			if err != nil {
				t.Fatalf("groups=%d ranks=%d: %v", target, ranks, err)
			}
			if !reflect.DeepEqual(got.Bins, want.Bins) {
				t.Fatalf("groups=%d ranks=%d: bins differ", target, ranks)
			}
		}
	}
}

// TestPAMXProjectionIdentityTCP: the same identity across a loopback
// TCP mesh, rank 0 holding the reduced bins.
func TestPAMXProjectionIdentityTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP world in -short mode")
	}
	const n = 2000
	bamPath, _, d := writeShardDataset(t, n)
	rname := d.Header.Refs[0].Name
	want, err := Coverage(d.Records, d.Header, rname, shardBinSize)
	if err != nil {
		t.Fatalf("Coverage: %v", err)
	}
	const worldSize = 2
	for _, target := range []int{1, 2, 4, 8} {
		pamxPath := writePAMXDataset(t, bamPath, n, target)
		var mu sync.Mutex
		var rank0 *Histogram
		runHistLoopbackWorld(t, worldSize, func(w *mpinet.World) error {
			p := shard.NewPAMXProvider(pamxPath)
			defer p.Close()
			got, err := FromProvider(p, rname, shardBinSize, shard.Config{
				Ranks:   worldSize,
				Workers: 2,
				Launch:  w.Launcher(),
			})
			if err != nil {
				return err
			}
			if w.Rank() == 0 {
				mu.Lock()
				rank0 = got
				mu.Unlock()
			}
			return nil
		})
		if rank0 == nil {
			t.Fatalf("groups=%d: rank 0 produced no result", target)
		}
		if !reflect.DeepEqual(rank0.Bins, want.Bins) {
			t.Fatalf("groups=%d over TCP: bins differ", target)
		}
	}
}
