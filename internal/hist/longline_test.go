package hist

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parseq/internal/sam"
)

// TestFromSAMParallelLongLine feeds a 5 MiB alignment line — over the
// 4 MiB bufio cap this path used to carry, the shape of an ONT ultralong
// read — and requires the same histogram as the in-memory reference.
func TestFromSAMParallelLongLine(t *testing.T) {
	const seqLen = 5 << 20
	hdr := "@SQ\tSN:chr1\tLN:100000000\n"
	short := "r%d\t0\tchr1\t%d\t60\t4M\t*\t0\t0\tACGT\tIIII\n"
	long := fmt.Sprintf("ont1\t0\tchr1\t1000\t60\t%dM\t*\t0\t0\t%s\t%s\n",
		seqLen, strings.Repeat("A", seqLen), strings.Repeat("I", seqLen))
	text := hdr + fmt.Sprintf(short, 1, 10) + long + fmt.Sprintf(short, 2, 9000000)
	path := filepath.Join(t.TempDir(), "long.sam")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	r := strings.NewReader(text)
	h, start, err := sam.ScanHeader(r)
	if err != nil {
		t.Fatal(err)
	}
	var recs []sam.Record
	for _, line := range strings.SplitAfter(text[start:], "\n") {
		if line == "" {
			continue
		}
		var rec sam.Record // fields alias the line, so each gets its own copy
		if err := sam.ParseRecordIntoBytes(&rec, []byte(strings.TrimSuffix(line, "\n"))); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	want, err := Coverage(recs, h, "chr1", 100000)
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{1, 3} {
		got, err := FromSAMParallel(path, "chr1", 100000, cores, nil)
		if err != nil {
			t.Fatalf("cores=%d: %v", cores, err)
		}
		for i := range want.Bins {
			if got.Bins[i] != want.Bins[i] {
				t.Fatalf("cores=%d: bin %d = %v, want %v", cores, i, got.Bins[i], want.Bins[i])
			}
		}
	}
}

// TestFromSAMParallelLineLimit shrinks the line limit and requires the
// converter's wrapped error: bufio.ErrTooLong under errors.Is, carrying
// the offending line's absolute file offset.
func TestFromSAMParallelLineLimit(t *testing.T) {
	old := sam.MaxLineBytes
	sam.MaxLineBytes = 512 << 10
	defer func() { sam.MaxLineBytes = old }()

	hdr := "@SQ\tSN:chr1\tLN:1000\n"
	good := "ok1\t0\tchr1\t1\t30\t4M\t*\t0\t0\tACGT\tIIII\n"
	long := "toolong\t0\tchr1\t9\t30\t*\t*\t0\t0\t" +
		strings.Repeat("C", sam.MaxLineBytes+1000) + "\t*\n"
	path := filepath.Join(t.TempDir(), "cap.sam")
	if err := os.WriteFile(path, []byte(hdr+good+long), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := FromSAMParallel(path, "chr1", 10, 1, nil)
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("error does not wrap bufio.ErrTooLong: %v", err)
	}
	if want := sam.LineTooLongError(int64(len(hdr) + len(good))).Error(); err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}
