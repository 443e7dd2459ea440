package sam

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// engineCases are the four ways the batch line engine can read a file:
// inline or pipelined, over the file mapping or over pooled chunks.
var engineCases = []struct {
	workers int
	pooled  bool
}{{1, false}, {4, false}, {1, true}, {4, true}}

// render is a Visit that writes each record back as one line of text.
func render(dst []byte, rec *Record) ([]byte, error) { return append(rec.AppendTo(dst), '\n'), nil }

// open opens path for the engine; pooled drops the file mapping, so the
// engine reads through pooled chunks as it does where mapping fails.
func open(path string, pooled bool) (*Source, error) {
	s, err := Open(path)
	if err == nil && pooled {
		s.unmap()
		s.mapped, s.unmap = nil, func() {}
	}
	return s, err
}

// readLines reads path's alignment section through the engine, each
// record rendered back to one line of text.
func readLines(path string, workers int, pooled bool) (*Header, string, error) {
	s, err := open(path, pooled)
	if err != nil {
		return nil, "", err
	}
	defer s.Close()
	var out bytes.Buffer
	err = s.Batches(s.All(), workers, func() Visit { return render }, func(b *Batch) error {
		out.Write(b.Out)
		return nil
	})
	return s.Header, out.String(), err
}

// readAll reads SAM text the way the repository's readers do: the header
// through Open's scan, then the records through the batch line engine,
// blank lines skipped. Every engineCase must read the same records and
// fail with the same error; a parse error names the file offset of its
// line.
func readAll(t *testing.T, text string) (*Header, []Record, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.sam")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	h, want, wantErr := readLines(path, 1, false)
	for _, c := range engineCases[1:] {
		_, got, err := readLines(path, c.workers, c.pooled)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("workers=%d pooled=%v read %q, %v; inline over the mapping read %q, %v",
				c.workers, c.pooled, got, err, want, wantErr)
		}
	}
	var recs []Record
	for _, line := range strings.Split(strings.TrimSuffix(want, "\n"), "\n") {
		if line == "" {
			continue
		}
		rec, err := ParseRecord(line)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return h, recs, wantErr
}

// TestBatchesMappedAndPooled reads a section of many batches, with CRLF
// lines, blank lines and a line longer than a batch, every way the
// engine can: each must give back every record in order, and the drain
// must see the parsed records and the chunk bytes the section holds.
func TestBatchesMappedAndPooled(t *testing.T) {
	var text, want strings.Builder
	text.WriteString(sampleHeader)
	for i := 0; i < 6000; i++ {
		line := strings.Replace(sampleLine, "r001", fmt.Sprintf("r%05d", i), 1)
		if i == 3000 { // longer than a batch
			line = strings.Replace(line, "NM:i:2", "XX:Z:"+strings.Repeat("x", 2*batchBytes), 1)
		}
		eol := "\n"
		if i%7 == 0 {
			eol = "\r\n"
		}
		if i%11 == 0 {
			eol += "\n"
		}
		text.WriteString(line + eol)
		want.WriteString(line + "\n")
	}
	path := filepath.Join(t.TempDir(), "many.sam")
	if err := os.WriteFile(path, []byte(text.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range engineCases {
		s, err := open(path, c.pooled)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		var records, chunkBytes, batches int64
		err = s.Batches(s.All(), c.workers, func() Visit { return render }, func(b *Batch) error {
			got.Write(b.Out)
			records += b.Records
			chunkBytes += int64(len(b.Chunk))
			batches++
			return nil
		})
		s.Close()
		if err != nil {
			t.Fatalf("workers=%d pooled=%v: %v", c.workers, c.pooled, err)
		}
		if got.String() != want.String() {
			t.Errorf("workers=%d pooled=%v: records differ from the file's", c.workers, c.pooled)
		}
		if records != 6000 || chunkBytes != int64(text.Len()-len(sampleHeader)) || batches < 3 {
			t.Errorf("workers=%d pooled=%v: %d records, %d chunk bytes in %d batches; want 6000, %d, several",
				c.workers, c.pooled, records, chunkBytes, batches, text.Len()-len(sampleHeader))
		}
	}
}

// TestBatchesStopOnDrainError: a drain error ends the read with that
// error, at every worker count and on both scans.
func TestBatchesStopOnDrainError(t *testing.T) {
	var text strings.Builder
	for text.Len() < 4*batchBytes {
		text.WriteString(sampleLine + "\n")
	}
	path := filepath.Join(t.TempDir(), "in.sam")
	if err := os.WriteFile(path, []byte(text.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	stop := errors.New("drain refused")
	keep := func(dst []byte, rec *Record) ([]byte, error) { return dst, nil }
	for _, c := range engineCases {
		s, err := open(path, c.pooled)
		if err != nil {
			t.Fatal(err)
		}
		drained := 0
		err = s.Batches(s.All(), c.workers, func() Visit { return keep }, func(*Batch) error {
			drained++
			return stop
		})
		s.Close()
		if err != stop || drained != 1 {
			t.Errorf("workers=%d pooled=%v: error %v after %d drains; want %v after 1", c.workers, c.pooled, err, drained, stop)
		}
	}
}
