package partition

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"parseq/internal/mpi"
)

// makeLines builds a synthetic line-oriented payload with varying line
// lengths and returns the text plus the individual lines.
func makeLines(seed int64, n int) (string, []string) {
	rng := rand.New(rand.NewSource(seed))
	lines := make([]string, n)
	var b strings.Builder
	for i := range lines {
		lines[i] = fmt.Sprintf("rec%06d %s", i, strings.Repeat("x", rng.Intn(120)))
		b.WriteString(lines[i])
		b.WriteByte('\n')
	}
	return b.String(), lines
}

// linesIn extracts the complete lines contained in data[start:end).
func linesIn(data string, r ByteRange) []string {
	chunk := data[r.Start:r.End]
	if chunk == "" {
		return nil
	}
	var out []string
	for _, l := range strings.Split(strings.TrimSuffix(chunk, "\n"), "\n") {
		out = append(out, l)
	}
	return out
}

func checkTiling(t *testing.T, data string, lines []string, parts []ByteRange) {
	t.Helper()
	// Ranges tile the region with no gaps or overlaps.
	var prev int64
	for i, p := range parts {
		if p.Start != prev {
			t.Fatalf("partition %d starts at %d, want %d", i, p.Start, prev)
		}
		if p.End < p.Start {
			t.Fatalf("partition %d inverted: %+v", i, p)
		}
		prev = p.End
	}
	if prev != int64(len(data)) {
		t.Fatalf("partitions end at %d, want %d", prev, len(data))
	}
	// Boundaries sit on line boundaries: concatenating per-partition
	// lines reproduces the input lines exactly.
	var got []string
	for _, p := range parts {
		got = append(got, linesIn(data, p)...)
	}
	if len(got) != len(lines) {
		t.Fatalf("partitioned lines = %d, want %d", len(got), len(lines))
	}
	for i := range got {
		if got[i] != lines[i] {
			t.Fatalf("line %d = %q, want %q", i, got[i], lines[i])
		}
	}
}

func TestSAMForwardTiles(t *testing.T) {
	data, lines := makeLines(1, 1000)
	r := strings.NewReader(data)
	for _, n := range []int{1, 2, 3, 7, 16, 61} {
		parts, err := SAMForward(r, 0, int64(len(data)), n)
		if err != nil {
			t.Fatalf("SAMForward(n=%d): %v", n, err)
		}
		if len(parts) != n {
			t.Fatalf("got %d parts, want %d", len(parts), n)
		}
		checkTiling(t, data, lines, parts)
	}
}

func TestSAMBackwardTiles(t *testing.T) {
	data, lines := makeLines(2, 1000)
	r := strings.NewReader(data)
	for _, n := range []int{1, 2, 3, 7, 16, 61} {
		parts, err := SAMBackward(r, 0, int64(len(data)), n)
		if err != nil {
			t.Fatalf("SAMBackward(n=%d): %v", n, err)
		}
		checkTiling(t, data, lines, parts)
	}
}

func TestForwardBackwardEquivalent(t *testing.T) {
	// The paper calls the two implementations equivalent: both must yield
	// line-aligned tilings covering identical line sets per the whole file
	// (individual boundaries may differ by one line).
	data, lines := makeLines(3, 500)
	r := strings.NewReader(data)
	for _, n := range []int{2, 5, 13} {
		fw, err := SAMForward(r, 0, int64(len(data)), n)
		if err != nil {
			t.Fatal(err)
		}
		bw, err := SAMBackward(r, 0, int64(len(data)), n)
		if err != nil {
			t.Fatal(err)
		}
		checkTiling(t, data, lines, fw)
		checkTiling(t, data, lines, bw)
	}
}

func TestSAMForwardMoreRanksThanLines(t *testing.T) {
	data, lines := makeLines(4, 3)
	r := strings.NewReader(data)
	parts, err := SAMForward(r, 0, int64(len(data)), 16)
	if err != nil {
		t.Fatal(err)
	}
	checkTiling(t, data, lines, parts)
}

func TestSAMForwardSingleHugeLine(t *testing.T) {
	data := strings.Repeat("z", 100000) + "\n"
	r := strings.NewReader(data)
	parts, err := SAMForward(r, 0, int64(len(data)), 8)
	if err != nil {
		t.Fatal(err)
	}
	// All content must land in partition 0.
	if parts[0].Len() != int64(len(data)) {
		t.Errorf("partition 0 = %+v, want the whole file", parts[0])
	}
	for i := 1; i < 8; i++ {
		if parts[i].Len() != 0 {
			t.Errorf("partition %d nonempty: %+v", i, parts[i])
		}
	}
}

func TestSAMForwardEmptyInput(t *testing.T) {
	parts, err := SAMForward(strings.NewReader(""), 0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		if p.Len() != 0 {
			t.Errorf("empty input yielded %+v", p)
		}
	}
}

func TestSAMForwardWithHeaderOffset(t *testing.T) {
	header := "@HD\tVN:1.4\n@SQ\tSN:chr1\tLN:100\n"
	data, lines := makeLines(5, 200)
	full := header + data
	r := strings.NewReader(full)
	parts, err := SAMForward(r, int64(len(header)), int64(len(full)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if parts[0].Start != int64(len(header)) {
		t.Errorf("partition 0 starts at %d, want %d", parts[0].Start, len(header))
	}
	var got []string
	for _, p := range parts {
		got = append(got, linesIn(full, p)...)
	}
	if len(got) != len(lines) {
		t.Fatalf("lines = %d, want %d", len(got), len(lines))
	}
}

func TestSAMForwardErrors(t *testing.T) {
	if _, err := SAMForward(strings.NewReader("x"), 0, 1, 0); err == nil {
		t.Error("n=0 succeeded")
	}
	if _, err := SAMForward(strings.NewReader("x"), 5, 1, 2); err == nil {
		t.Error("inverted region succeeded")
	}
}

func TestSAMForwardMPIMatchesSequential(t *testing.T) {
	data, lines := makeLines(6, 800)
	r := strings.NewReader(data)
	for _, n := range []int{1, 2, 4, 9} {
		seq, err := SAMForward(r, 0, int64(len(data)), n)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]ByteRange, n)
		err = mpi.Run(n, func(c *mpi.Comm) error {
			br, err := SAMForwardMPI(c, r, 0, int64(len(data)))
			if err != nil {
				return err
			}
			got[c.Rank()] = br
			return nil
		})
		if err != nil {
			t.Fatalf("SAMForwardMPI(n=%d): %v", n, err)
		}
		for i := range seq {
			if got[i] != seq[i] {
				t.Errorf("n=%d rank %d: MPI %+v vs sequential %+v", n, i, got[i], seq[i])
			}
		}
		checkTiling(t, data, lines, got)
	}
}

func TestRecords(t *testing.T) {
	parts := Records(10, 3)
	want := [][2]int{{0, 4}, {4, 7}, {7, 10}}
	for i := range want {
		if parts[i] != want[i] {
			t.Errorf("Records(10,3)[%d] = %v, want %v", i, parts[i], want[i])
		}
	}
	if got := Records(5, 0); got != nil {
		t.Errorf("Records(5,0) = %v", got)
	}
}

// Property: partitioning preserves every byte of every line for random
// inputs, partition counts and header offsets.
func TestSAMForwardProperty(t *testing.T) {
	f := func(seed int64, nLines uint8, nParts uint8) bool {
		data, lines := makeLines(seed, int(nLines%200)+1)
		n := int(nParts%30) + 1
		parts, err := SAMForward(strings.NewReader(data), 0, int64(len(data)), n)
		if err != nil {
			return false
		}
		var got []string
		for _, p := range parts {
			got = append(got, linesIn(data, p)...)
		}
		if len(got) != len(lines) {
			return false
		}
		for i := range got {
			if got[i] != lines[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFindLineBreakScansAcrossChunks(t *testing.T) {
	// Line breaker beyond one scan chunk.
	data := strings.Repeat("a", scanChunk+100) + "\n" + "tail\n"
	r := bytes.NewReader([]byte(data))
	off, err := findLineBreakForward(r, 0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if off != int64(scanChunk+100) {
		t.Errorf("forward offset = %d, want %d", off, scanChunk+100)
	}
	back, err := findLineBreakBackward(r, int64(len(data)-1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if back != int64(scanChunk+100) {
		t.Errorf("backward offset = %d, want %d", back, scanChunk+100)
	}
}
