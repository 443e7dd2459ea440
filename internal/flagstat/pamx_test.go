package flagstat

import (
	"path/filepath"
	"sync"
	"testing"

	"parseq/internal/mpinet"
	"parseq/internal/shard"
)

// writePAMXDataset converts a BAM file into PAMX with the group-count
// knob set so the file holds at least target groups (groups also cut on
// every reference change) — PAMX shard counts are group counts.
func writePAMXDataset(t testing.TB, bamPath string, n, target int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.pamx")
	groupRecords := (n + target - 1) / target
	if _, err := shard.Rewrite(bamPath, path, shard.WithGroupCaps(0, groupRecords)); err != nil {
		t.Fatalf("FromBAM: %v", err)
	}
	return path
}

// TestPAMXProjectionIdentity: flagstat over a columnar PAMX provider —
// which projects down to the coordinate column and never inflates
// names, CIGARs, sequences, qualities or tags — must equal the
// sequential whole-record BAM scan at every group structure and rank
// count on the in-process channel world.
func TestPAMXProjectionIdentity(t *testing.T) {
	const n = 3000
	bamPath, _, d := writeShardDataset(t, n)
	want := Of(d.Records)

	for _, target := range []int{1, 2, 4, 8} {
		pamxPath := writePAMXDataset(t, bamPath, n, target)
		for _, ranks := range []int{1, 2} {
			p := shard.NewPAMXProvider(pamxPath)
			got, err := Sharded(p, shard.Config{Ranks: ranks, Workers: 3})
			p.Close()
			if err != nil {
				t.Fatalf("groups=%d ranks=%d: %v", target, ranks, err)
			}
			if got != want {
				t.Fatalf("groups=%d ranks=%d:\n got %+v\nwant %+v", target, ranks, got, want)
			}
		}
	}
}

// TestPAMXProjectionIdentityTCP: the same identity over a real loopback
// TCP world — projected column scans on every rank, partial tallies
// gathered to rank 0.
func TestPAMXProjectionIdentityTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP world in -short mode")
	}
	const n = 2000
	bamPath, _, d := writeShardDataset(t, n)
	want := Of(d.Records)
	const worldSize = 2
	for _, target := range []int{1, 2, 4, 8} {
		pamxPath := writePAMXDataset(t, bamPath, n, target)
		var mu sync.Mutex
		var rank0 *Stats
		runLoopbackWorld(t, worldSize, func(w *mpinet.World) error {
			p := shard.NewPAMXProvider(pamxPath)
			defer p.Close()
			got, err := Sharded(p, shard.Config{
				Ranks:   worldSize,
				Workers: 2,
				Launch:  w.Launcher(),
			})
			if err != nil {
				return err
			}
			if w.Rank() == 0 {
				mu.Lock()
				rank0 = &got
				mu.Unlock()
			}
			return nil
		})
		if rank0 == nil {
			t.Fatalf("groups=%d: rank 0 produced no result", target)
		}
		if *rank0 != want {
			t.Fatalf("groups=%d over TCP:\n got %+v\nwant %+v", target, *rank0, want)
		}
	}
}
