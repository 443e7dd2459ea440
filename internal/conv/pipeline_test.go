package conv

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parseq/internal/bam"
	"parseq/internal/formats"
	"parseq/internal/partition"
	"parseq/internal/sam"
)

// TestPipelinedConvertSAMByteIdentity is the line engine's contract:
// the converter produces byte-for-byte the single-threaded reference
// conversion, with the reference's Stats, for every registered target
// format, at every worker count, at one and several ranks. ParseWorkers
// 0 exercises the adaptive default, 1 the inline engine, 4 and 8 the
// parse pipeline.
func TestPipelinedConvertSAMByteIdentity(t *testing.T) {
	samPath, _, d := writeDataset(t, 800)
	for _, format := range formats.Names() {
		want, emitted := referenceText(t, d.Records, d.Header, format)
		for _, workers := range []int{0, 1, 4, 8} {
			for _, cores := range []int{1, 3} {
				res, err := ConvertSAM(samPath, Options{
					Format: format, Cores: cores, ParseWorkers: workers,
					OutDir: t.TempDir(), OutPrefix: "t",
				})
				if err != nil {
					t.Fatalf("ConvertSAM(%s, workers=%d, cores=%d): %v",
						format, workers, cores, err)
				}
				if got := concatFiles(t, res.Files); got != want {
					t.Errorf("%s workers=%d cores=%d output differs from reference (got %d bytes, want %d)",
						format, workers, cores, len(got), len(want))
				}
				if res.Stats.Records != int64(len(d.Records)) {
					t.Errorf("%s workers=%d cores=%d Records = %d, want %d",
						format, workers, cores, res.Stats.Records, len(d.Records))
				}
				if res.Stats.Emitted != emitted {
					t.Errorf("%s workers=%d cores=%d Emitted = %d, want %d",
						format, workers, cores, res.Stats.Emitted, emitted)
				}
				if res.Stats.BytesOut != int64(len(want)) {
					t.Errorf("%s workers=%d cores=%d BytesOut = %d, want %d",
						format, workers, cores, res.Stats.BytesOut, len(want))
				}
			}
		}
	}
}

// referenceShards writes, for each of the ranks' Algorithm 1 partitions
// of samPath, the BAM shard a per-record bam.Writer on the sequential
// codec makes of that partition's records.
func referenceShards(t *testing.T, samPath string, recs []sam.Record, ranks int) [][]byte {
	t.Helper()
	f, err := os.Open(samPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, dataStart, err := sam.ScanHeader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(samPath)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.SAMForward(f, dataStart, int64(len(data)), ranks)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, len(parts))
	for i, p := range parts {
		n := bytes.Count(data[p.Start:p.End], []byte{'\n'})
		var buf bytes.Buffer
		w, err := bam.NewWriter(&buf, h, bam.WithCodecWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		for j := range recs[:n] {
			if err := w.Write(&recs[j]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		shards[i], recs = buf.Bytes(), recs[n:]
	}
	return shards
}

// TestPipelinedConvertSAMToBAMByteIdentity pins the binary target: each
// shard written through the line engine (pre-encoded records handed to
// WriteEncoded) is byte-identical to a per-record bam.Writer's shard of
// the rank's records, both with the per-stream codec pinned sequential
// and with the adaptive default that attaches the shards to the shared
// deflate pool.
func TestPipelinedConvertSAMToBAMByteIdentity(t *testing.T) {
	samPath, _, d := writeDataset(t, 600)
	refShards := referenceShards(t, samPath, d.Records, 2)
	for _, workers := range []int{1, 4, 8} {
		for _, codec := range []int{1, 0} { // 0 = adaptive → shared pool
			res, err := ConvertSAMToBAM(samPath, Options{
				Cores: 2, ParseWorkers: workers, CodecWorkers: codec,
				OutDir: t.TempDir(), OutPrefix: "shard",
			})
			if err != nil {
				t.Fatalf("ConvertSAMToBAM(workers=%d, codec=%d): %v", workers, codec, err)
			}
			if res.Stats.Records != int64(len(d.Records)) {
				t.Errorf("workers=%d codec=%d Records = %d, want %d",
					workers, codec, res.Stats.Records, len(d.Records))
			}
			for i, f := range res.Files {
				b, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b, refShards[i]) {
					t.Errorf("workers=%d codec=%d shard %d differs from the reference (%d vs %d bytes)",
						workers, codec, i, len(b), len(refShards[i]))
				}
			}
		}
	}
}

// TestPipelinedPreprocessedConverterIdentity covers the psam path: the
// parallel SAM→BAMX preprocessing feeds the reference converter output
// at one and four parse workers.
func TestPipelinedPreprocessedConverterIdentity(t *testing.T) {
	samPath, _, d := writeDataset(t, 500)
	want := expected(t, d, "fastq")
	for _, workers := range []int{1, 4} {
		res, err := ConvertSAMPreprocessed(samPath, 2, Options{
			Format: "fastq", Cores: 2, ParseWorkers: workers,
			OutDir: t.TempDir(), OutPrefix: "t",
		})
		if err != nil {
			t.Fatalf("ConvertSAMPreprocessed(workers=%d): %v", workers, err)
		}
		if got := concatFiles(t, res.Files); got != want {
			t.Errorf("workers=%d preprocessed conversion differs from reference", workers)
		}
	}
	// The preprocessing entry point itself, with explicit pipelined parse.
	pre, err := PreprocessSAMParallel(samPath, Options{OutDir: t.TempDir(), OutPrefix: "pp", Cores: 3, ParseWorkers: 4})
	if err != nil {
		t.Fatalf("PreprocessSAMParallel: %v", err)
	}
	if pre.Records != 500 {
		t.Errorf("preprocessed Records = %d, want 500", pre.Records)
	}
	res, err := ConvertPreprocessed(pre.BAMXFiles, pre.BAIXFiles, Options{
		Format: "fastq", Cores: 1, OutDir: t.TempDir(), OutPrefix: "t",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := concatFiles(t, res.Files); got != want {
		t.Error("pipelined-preprocess shards convert to different bytes")
	}
}

// corruptRecord rewrites samPath with alignment line n's FLAG field
// replaced by a non-number, returning the corrupted copy's path.
func corruptRecord(t *testing.T, samPath string, n int) string {
	t.Helper()
	data, err := os.ReadFile(samPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	seen := 0
	for i, line := range lines {
		if line == "" || strings.HasPrefix(line, "@") {
			continue
		}
		if seen == n {
			fields := strings.Split(line, "\t")
			if len(fields) < 2 {
				t.Fatalf("line %d has %d fields", i, len(fields))
			}
			fields[1] = "notaflag"
			lines[i] = strings.Join(fields, "\t")
			out := filepath.Join(t.TempDir(), "corrupt.sam")
			if err := os.WriteFile(out, []byte(strings.Join(lines, "")), 0o644); err != nil {
				t.Fatal(err)
			}
			return out
		}
		seen++
	}
	t.Fatalf("fewer than %d alignment lines", n)
	return ""
}

// TestPipelinedErrorParity pins the failure contract: a malformed
// record surfaces the same error message at every worker count, and the
// partial rank file holds exactly the records before it — everything
// before the failing record, nothing after.
func TestPipelinedErrorParity(t *testing.T) {
	samPath, _, d := writeDataset(t, 400)
	corrupt := corruptRecord(t, samPath, 250)
	const wantErr = `sam: invalid alignment record: FLAG "notaflag"`
	wantPartial, _ := referenceText(t, d.Records[:250], d.Header, "sam")

	for _, workers := range []int{1, 4, 8} {
		dir := t.TempDir()
		_, err := ConvertSAM(corrupt, Options{
			Format: "sam", Cores: 1, ParseWorkers: workers, OutDir: dir, OutPrefix: "t",
		})
		if err == nil || err.Error() != wantErr {
			t.Errorf("workers=%d error = %v, want %q", workers, err, wantErr)
		}
		partial, err := os.ReadFile(filepath.Join(dir, "t_p000.sam"))
		if err != nil {
			t.Fatal(err)
		}
		if string(partial) != wantPartial {
			t.Errorf("workers=%d partial output is not the first 250 records (%d vs %d bytes)",
				workers, len(partial), len(wantPartial))
		}

		// The binary target fails with the same message too.
		_, err = ConvertSAMToBAM(corrupt, Options{
			Cores: 1, ParseWorkers: workers, OutDir: t.TempDir(), OutPrefix: "s",
		})
		if err == nil || err.Error() != wantErr {
			t.Errorf("workers=%d SAM→BAM error = %v, want %q", workers, err, wantErr)
		}
	}
}

// TestLongLineBeyondOldCap feeds a 5 MiB alignment line — over the old
// converter's silent 4 MiB bufio cap, the shape of an ONT ultralong
// read — through the inline engine and the parse pipeline and requires
// identical successful output.
func TestLongLineBeyondOldCap(t *testing.T) {
	const seqLen = 5 << 20
	line := fmt.Sprintf("ont1\t0\tchr1\t1\t60\t%dM\t*\t0\t0\t%s\t%s",
		seqLen, strings.Repeat("A", seqLen), strings.Repeat("I", seqLen))
	hdr := "@SQ\tSN:chr1\tLN:100000000\n"
	path := filepath.Join(t.TempDir(), "long.sam")
	if err := os.WriteFile(path, []byte(hdr+line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var first string
	for _, workers := range []int{1, 4} {
		res, err := ConvertSAM(path, Options{
			Format: "sam", Cores: 1, ParseWorkers: workers,
			OutDir: t.TempDir(), OutPrefix: "t",
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Stats.Records != 1 {
			t.Errorf("workers=%d Records = %d, want 1", workers, res.Stats.Records)
		}
		got := concatFiles(t, res.Files)
		if !strings.Contains(got, line) {
			t.Errorf("workers=%d output lost the long line (%d bytes out)", workers, len(got))
		}
		if first == "" {
			first = got
		} else if got != first {
			t.Errorf("workers=%d output differs from workers=1", workers)
		}
	}
}

// TestLineLimitErrorParity shrinks the line limit and requires every
// worker count to fail with the identical wrapped error: bufio.ErrTooLong
// under errors.Is, carrying the offending line's absolute file offset.
func TestLineLimitErrorParity(t *testing.T) {
	old := sam.MaxLineBytes
	sam.MaxLineBytes = 512 << 10
	defer func() { sam.MaxLineBytes = old }()

	hdr := "@SQ\tSN:chr1\tLN:1000\n"
	good1 := "ok1\t0\tchr1\t1\t30\t4M\t*\t0\t0\tACGT\tIIII\n"
	good2 := "ok2\t0\tchr1\t5\t30\t4M\t*\t0\t0\tGGGG\tIIII\n"
	long := "toolong\t0\tchr1\t9\t30\t*\t*\t0\t0\t" +
		strings.Repeat("C", sam.MaxLineBytes+1000) + "\t*\n"
	path := filepath.Join(t.TempDir(), "cap.sam")
	if err := os.WriteFile(path, []byte(hdr+good1+good2+long), 0o644); err != nil {
		t.Fatal(err)
	}
	wantOff := int64(len(hdr) + len(good1) + len(good2))
	want := sam.LineTooLongError(wantOff).Error()
	for _, workers := range []int{1, 4} {
		_, err := ConvertSAM(path, Options{
			Format: "bed", Cores: 1, ParseWorkers: workers,
			OutDir: t.TempDir(), OutPrefix: "t",
		})
		if err == nil {
			t.Fatalf("workers=%d over-limit line converted successfully", workers)
		}
		if !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("workers=%d error does not wrap bufio.ErrTooLong: %v", workers, err)
		}
		if err.Error() != want {
			t.Errorf("workers=%d error = %q, want %q", workers, err, want)
		}
	}
}

// TestLineJustUnderLimitSucceeds pins the boundary: content of exactly
// limit-1 bytes plus the newline passes at every worker count (bufio's
// rule), so the engine's per-line check cannot be stricter than the
// scanner.
func TestLineJustUnderLimitSucceeds(t *testing.T) {
	old := sam.MaxLineBytes
	sam.MaxLineBytes = 512 << 10
	defer func() { sam.MaxLineBytes = old }()

	hdr := "@SQ\tSN:chr1\tLN:1000\n"
	stem := "edge\t0\tchr1\t1\t30\t*\t*\t0\t0\t"
	line := stem + strings.Repeat("C", sam.MaxLineBytes-1-len(stem)-2) + "\t*"
	if len(line) != sam.MaxLineBytes-1 {
		t.Fatalf("test bug: line is %d bytes, want %d", len(line), sam.MaxLineBytes-1)
	}
	path := filepath.Join(t.TempDir(), "edge.sam")
	if err := os.WriteFile(path, []byte(hdr+line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		res, err := ConvertSAM(path, Options{
			Format: "sam", Cores: 1, ParseWorkers: workers,
			OutDir: t.TempDir(), OutPrefix: "t",
		})
		if err != nil {
			t.Fatalf("workers=%d limit-1 line failed: %v", workers, err)
		}
		if res.Stats.Records != 1 {
			t.Errorf("workers=%d Records = %d, want 1", workers, res.Stats.Records)
		}
	}
}

// TestCollectRetainsRecords pins the aliasing contract of preprocessing:
// collect keeps records that alias the batches' lines, so once a range
// longer than two batches has drained, every kept record must still read
// as the dataset's — over the file mapping and over pooled chunks, which
// must not be recycled under a kept record, inline and pipelined.
func TestCollectRetainsRecords(t *testing.T) {
	samPath, _, d := writeDataset(t, 3000)
	for _, workers := range []int{1, 4} {
		for _, mapped := range []bool{true, false} {
			src, err := openSAM(samPath, workers)
			if err != nil {
				t.Fatal(err)
			}
			if src.size-src.dataStart <= 2*batchBytes {
				t.Fatalf("alignment section is %d bytes, want more than two batches", src.size-src.dataStart)
			}
			if mapped && src.mapped == nil {
				t.Logf("workers=%d: no file mapping on this platform", workers)
				src.close()
				continue
			}
			if !mapped {
				src.mapped = nil
			}
			recs, err := src.collect(partition.ByteRange{Start: src.dataStart, End: src.size})
			if err != nil {
				t.Fatalf("workers=%d mapped=%v: %v", workers, mapped, err)
			}
			if len(recs) != len(d.Records) {
				t.Fatalf("workers=%d mapped=%v: %d records, want %d", workers, mapped, len(recs), len(d.Records))
			}
			for i := range recs {
				if got, want := recs[i].String(), d.Records[i].String(); got != want {
					t.Errorf("workers=%d mapped=%v record %d = %q, want %q", workers, mapped, i, got, want)
					break
				}
			}
			src.close()
		}
	}
}
