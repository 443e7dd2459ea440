package pamx_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"parseq/internal/bam"
	"parseq/internal/bamx"
	"parseq/internal/formats/pamx"
	"parseq/internal/leakcheck"
	"parseq/internal/shard"
	"parseq/internal/simdata"
)

// The PAMX conversions are shard.Rewrite into or out of a .pamx; these
// tests pin them from outside the package, where the writer and reader
// meet the other containers.

// writeBAM materialises a deterministic coordinate-sorted dataset
// (multiple references plus an unmapped tail) as a BAM file.
func writeBAM(t testing.TB, n int) (string, *simdata.Dataset) {
	t.Helper()
	d := simdata.Generate(simdata.DefaultConfig(n))
	path := filepath.Join(t.TempDir(), "data.bam")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBAM(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, d
}

// canonicalBAM streams a BAM file's bodies through the sequential
// reader/writer pair — the byte reference a PAMX round trip must
// reproduce — and returns them with the rewrite.
func canonicalBAM(t testing.TB, path string) (bodies [][]byte, rewrite []byte) {
	t.Helper()
	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	br, err := bam.NewReader(in)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	var buf bytes.Buffer
	bw, err := bam.NewWriter(&buf, br.Header())
	if err != nil {
		t.Fatal(err)
	}
	for {
		body, err := br.ReadBody()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, append([]byte(nil), body...))
		if err := bw.WriteEncoded(binary.LittleEndian.AppendUint32(nil, uint32(len(body)))); err != nil {
			t.Fatal(err)
		}
		if err := bw.WriteEncoded(body); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return bodies, buf.Bytes()
}

// TestRoundTripByteIdentity is the correctness contract: BAM → PAMX →
// BAM reproduces the canonical rewrite byte for byte at codec workers
// {0, 1, 4} across group structures forced to target counts {1, 2, 4,
// 8}, and the PAMX file bytes themselves are identical at every worker
// count (the BGZF writer paths are bit-identical).
func TestRoundTripByteIdentity(t *testing.T) {
	const n = 2000
	bamPath, _ := writeBAM(t, n)
	_, want := canonicalBAM(t, bamPath)
	dir := t.TempDir()

	for _, target := range []int{1, 2, 4, 8} {
		groupRecords := (n + target - 1) / target
		var pamxBytes []byte
		for _, workers := range []int{0, 1, 4} {
			opts := []shard.Option{shard.WithCodecWorkers(workers), shard.WithGroupCaps(0, groupRecords)}
			pamxPath := filepath.Join(dir, "data.pamx")
			count, err := shard.Rewrite(bamPath, pamxPath, opts...)
			if err != nil || count != n {
				t.Fatalf("target %d workers %d: BAM → PAMX = %d, %v; want %d records", target, workers, count, err, n)
			}
			raw, err := os.ReadFile(pamxPath)
			if err != nil {
				t.Fatal(err)
			}
			if pamxBytes == nil {
				pamxBytes = raw
			} else if !bytes.Equal(raw, pamxBytes) {
				t.Fatalf("target %d workers %d: PAMX bytes differ from workers-0 output", target, workers)
			}

			pf, err := pamx.OpenPath(pamxPath)
			if err != nil {
				t.Fatal(err)
			}
			if got := pf.NumRecords(); got != n {
				t.Fatalf("target %d: footer counts %d records, want %d", target, got, n)
			}
			if got := pf.NumGroups(); got < target {
				t.Fatalf("target %d: only %d groups", target, got)
			}
			pf.Close()

			outPath := filepath.Join(dir, "back.bam")
			count, err = shard.Rewrite(pamxPath, outPath, opts...)
			if err != nil || count != n {
				t.Fatalf("target %d workers %d: PAMX → BAM = %d, %v; want %d records", target, workers, count, err, n)
			}
			got, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("target %d workers %d: round-tripped BAM differs from canonical rewrite", target, workers)
			}
		}
	}
}

// TestFromBAMXMatchesFromBAM converts the same dataset from its BAM and
// BAMX renderings and requires identical PAMX bytes — the two sources
// feed identical bodies into the column splitter.
func TestFromBAMXMatchesFromBAM(t *testing.T) {
	bamPath, d := writeBAM(t, 500)
	dir := t.TempDir()
	bamxPath := filepath.Join(dir, "data.bamx")
	xf, err := os.Create(bamxPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bamx.BuildFromRecords(xf, d.Header, d.Records); err != nil {
		t.Fatal(err)
	}
	if err := xf.Close(); err != nil {
		t.Fatal(err)
	}

	opts := []shard.Option{shard.WithCodecWorkers(1), shard.WithGroupCaps(0, 100)}
	fromBAM := filepath.Join(dir, "a.pamx")
	fromBAMX := filepath.Join(dir, "b.pamx")
	if _, err := shard.Rewrite(bamPath, fromBAM, opts...); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Rewrite(bamxPath, fromBAMX, opts...); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(fromBAM)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(fromBAMX)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("PAMX from BAM and from BAMX differ")
	}
}

// TestFailedConversionLeavesNoFile feeds a PAMX sink a stream that turns
// bad mid-stream — a body that fails validation, or a source read error
// — while a flush is in flight: the error comes back typed, the flush
// stage is joined, and neither the .pamx nor its temporary file is left.
func TestFailedConversionLeavesNoFile(t *testing.T) {
	bamPath, d := writeBAM(t, 1500)
	bodies, _ := canonicalBAM(t, bamPath)
	errSource := errors.New("source read failure")

	base := runtime.NumGoroutine()
	for _, workers := range []int{0, 1, 4} {
		for name, tc := range map[string]struct {
			bad  []byte
			err  error
			want error
		}{
			"corrupt body": {bad: bodies[0][:10], want: pamx.ErrCorrupt},
			"lying body":   {bad: append([]byte(nil), bodies[0][:33]...), want: pamx.ErrCorrupt},
			"source error": {err: errSource, want: errSource},
		} {
			dir := t.TempDir()
			err := func() error {
				out, err := shard.Create(filepath.Join(dir, "out.pamx"), d.Header,
					shard.WithCodecWorkers(workers), shard.WithGroupCaps(32<<10, 0))
				if err != nil {
					return err
				}
				defer out.Abort()
				for i, body := range bodies {
					if i == len(bodies)*2/3 {
						if tc.err != nil {
							return tc.err
						}
						body = tc.bad
					}
					if err := out.WriteBody(body); err != nil {
						return err
					}
				}
				return out.Close()
			}()
			if !errors.Is(err, tc.want) {
				t.Fatalf("workers %d, %s: err = %v, want %v", workers, name, err, tc.want)
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Fatalf("workers %d, %s: %d files left behind, %s first", workers, name, len(left), left[0].Name())
			}
		}
	}
	if !leakcheck.Settle(base) {
		t.Fatalf("%d goroutines after the failed conversions, %d before", runtime.NumGoroutine(), base)
	}
}
