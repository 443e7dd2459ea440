package shard_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"parseq/internal/bamx"
	"parseq/internal/flagstat"
	"parseq/internal/formats/pamx"
	"parseq/internal/hist"
	"parseq/internal/shard"
	"parseq/internal/simdata"
)

// writeContainers materialises one dataset as BAMX + BAIX and as PAMX.
func writeContainers(t *testing.T, n int) (bamxPath, pamxPath string, d *simdata.Dataset) {
	t.Helper()
	dir := t.TempDir()
	d = simdata.Generate(simdata.DefaultConfig(n))
	create := func(name string, write func(f *os.File) error) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var idx *bamx.Index
	bamxPath = create("data.bamx", func(f *os.File) (err error) {
		idx, err = bamx.BuildFromRecords(f, d.Header, d.Records)
		return err
	})
	create("data.baix", func(f *os.File) error { _, err := idx.WriteTo(f); return err })
	bamPath := create("data.bam", func(f *os.File) error { return d.WriteBAM(f) })
	pamxPath = filepath.Join(dir, "data.pamx")
	if _, err := shard.Rewrite(bamPath, pamxPath, shard.WithGroupCaps(0, n/5)); err != nil {
		t.Fatal(err)
	}
	return bamxPath, pamxPath, d
}

// fullView hides a provider's Projector side, so the analyses'
// shard.Project call is a no-op and readers return whole bodies.
type fullView struct{ shard.Provider }

// TestBAMXProjectionMatchesFullAndPAMX: the fixed-offset views change
// no result — projected flagstat and coverage over BAMX equal the
// full-body runs and the columnar container's, at every worker and
// rank count.
func TestBAMXProjectionMatchesFullAndPAMX(t *testing.T) {
	bamxPath, pamxPath, d := writeContainers(t, 3000)
	rname := d.Header.Refs[0].Name
	type result struct {
		stats flagstat.Stats
		bins  []float64
	}
	run := func(open func() shard.Provider, cfg shard.Config) (r result) {
		t.Helper()
		p := open()
		defer p.Close()
		var err error
		if r.stats, err = flagstat.Sharded(p, cfg); err != nil {
			t.Fatal(err)
		}
		p2 := open()
		defer p2.Close()
		h, err := hist.FromProvider(p2, rname, 200, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.bins = h.Bins
		return r
	}
	want := run(func() shard.Provider { return fullView{shard.NewBAMXProvider(bamxPath)} }, shard.Config{Ranks: 1, Workers: 1})
	if want.stats.Total != int64(len(d.Records)) {
		t.Fatalf("full-body flagstat counted %d of %d records", want.stats.Total, len(d.Records))
	}
	for _, workers := range []int{1, 4} {
		for _, ranks := range []int{1, 3} {
			cfg := shard.Config{Ranks: ranks, Workers: workers}
			for name, open := range map[string]func() shard.Provider{
				"bamx projected": func() shard.Provider { return shard.NewBAMXProvider(bamxPath) },
				"bamx full":      func() shard.Provider { return fullView{shard.NewBAMXProvider(bamxPath)} },
				"pamx":           func() shard.Provider { return shard.NewPAMXProvider(pamxPath) },
			} {
				got := run(open, cfg)
				if got.stats != want.stats {
					t.Errorf("%s workers=%d ranks=%d: flagstat\n got %+v\nwant %+v", name, workers, ranks, got.stats, want.stats)
				}
				if !reflect.DeepEqual(got.bins, want.bins) {
					t.Errorf("%s workers=%d ranks=%d: histogram differs", name, workers, ranks)
				}
			}
		}
	}
}

// TestBAMXProjectedViewConvention: a narrow view is byte-for-byte the
// partial body pamx.GroupReader returns for the same record.
func TestBAMXProjectedViewConvention(t *testing.T) {
	bamxPath, pamxPath, _ := writeContainers(t, 600)
	for _, fields := range []pamx.Fields{pamx.FieldCoord, pamx.FieldCoord | pamx.FieldCigar} {
		drain := func(p shard.Provider) (bodies [][]byte) {
			t.Helper()
			defer p.Close()
			shard.Project(p, fields)
			shards, err := p.GenerateShards(shard.Options{TargetShards: 4})
			if err != nil {
				t.Fatal(err)
			}
			err = shard.ForEach(p, shards, 1, func(_ int, _ shard.Shard, rr shard.RecordReader) error {
				for {
					body, err := rr.NextBody()
					if err != nil {
						return ignoreEOF(err)
					}
					bodies = append(bodies, append([]byte(nil), body...))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			return bodies
		}
		got, want := drain(shard.NewBAMXProvider(bamxPath)), drain(shard.NewPAMXProvider(pamxPath))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("projection %v: BAMX views differ from PAMX views (%d vs %d records)", fields, len(got), len(want))
		}
	}
}

// TestBAMXCorruptRecordFailsUnderEveryProjection: a length field past
// its cap is ErrCorrupt whether or not the view would have read the
// field — a projected read is never a silent pass.
func TestBAMXCorruptRecordFailsUnderEveryProjection(t *testing.T) {
	bamxPath, _, d := writeContainers(t, 500)
	f, err := os.OpenFile(bamxPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Record 0 (on the first reference): l_seq = 0x7fffffff.
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0x7f}, bamx.HeaderSize(d.Header)+16); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := shard.Config{Ranks: 1, Workers: 2}
	for name, run := range map[string]func(p shard.Provider) error{
		"coord": func(p shard.Provider) error { _, err := flagstat.Sharded(p, cfg); return err },
		"coord+cigar": func(p shard.Provider) error {
			_, err := hist.FromProvider(p, d.Header.Refs[0].Name, 200, cfg)
			return err
		},
		"all": func(p shard.Provider) error { _, err := flagstat.Sharded(fullView{p}, cfg); return err },
	} {
		p := shard.NewBAMXProvider(bamxPath)
		if err := run(p); !errors.Is(err, bamx.ErrCorrupt) {
			t.Errorf("projection %s over a corrupt record: %v, want ErrCorrupt", name, err)
		}
		p.Close()
	}
}

// TestBAMXReaderRejectsBadShardRange: a shard descriptor outside the
// index (region) or the file (tail) is refused at open.
func TestBAMXReaderRejectsBadShardRange(t *testing.T) {
	bamxPath, _, d := writeContainers(t, 200)
	p := shard.NewBAMXProvider(bamxPath)
	defer p.Close()
	n := int64(len(d.Records))
	for _, sh := range []shard.Shard{
		{RefID: 0, RecLo: 0, RecHi: n + 1},
		{RefID: 0, RecLo: -1, RecHi: 1},
		{RefID: -1, RecLo: n - 1, RecHi: n + 1},
		{RefID: -1, RecLo: 5, RecHi: 4},
	} {
		if _, err := p.NewReader(sh); err == nil {
			t.Errorf("NewReader(%v [%d, %d)) succeeded", sh, sh.RecLo, sh.RecHi)
		}
	}
}

func ignoreEOF(err error) error {
	if err == io.EOF {
		return nil
	}
	return err
}
