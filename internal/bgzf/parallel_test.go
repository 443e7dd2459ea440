package bgzf

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
)

// testPayloads builds a mix of compressible and incompressible data
// large enough to span many blocks.
func testData(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	for i := range data {
		if (i/1024)%2 == 0 {
			data[i] = byte(rng.Intn(4)) // compressible stretch
		} else {
			data[i] = byte(rng.Intn(256)) // incompressible stretch
		}
	}
	return data
}

func compressParallel(t testing.TB, data []byte, payload, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewParallelWriterSize(&buf, payload, workers)
	if _, err := w.Write(data); err != nil {
		t.Fatalf("ParallelWriter.Write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("ParallelWriter.Close: %v", err)
	}
	return buf.Bytes()
}

func TestParallelWriterBitIdenticalToSequential(t *testing.T) {
	data := testData(10*MaxPayload+12345, 7)
	for _, payload := range []int{0, 512, 4096, MaxPayload} {
		for _, workers := range []int{1, 3, 8} {
			seq := compress(t, data, payload)
			par := compressParallel(t, data, payload, workers)
			if !bytes.Equal(seq, par) {
				t.Errorf("payload=%d workers=%d: parallel output differs from sequential (%d vs %d bytes)",
					payload, workers, len(par), len(seq))
			}
		}
	}
}

func TestParallelRoundTrip(t *testing.T) {
	data := testData(6*MaxPayload+999, 9)
	raw := compressParallel(t, data, 0, 4)
	r := NewParallelReader(bytes.NewReader(raw), 4)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("parallel round trip mismatch")
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestParallelCrossCodecCompatibility(t *testing.T) {
	data := testData(4*MaxPayload+77, 11)
	parRaw := compressParallel(t, data, 0, 4)
	seqRaw := compress(t, data, 0)

	// Files written by ParallelWriter are readable by the sequential Reader.
	got, err := io.ReadAll(NewReader(bytes.NewReader(parRaw)))
	if err != nil {
		t.Fatalf("sequential Reader over parallel output: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("sequential read of parallel output mismatch")
	}

	// And vice versa.
	pr := NewParallelReader(bytes.NewReader(seqRaw), 4)
	defer pr.Close()
	got, err = io.ReadAll(pr)
	if err != nil {
		t.Fatalf("ParallelReader over sequential output: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("parallel read of sequential output mismatch")
	}
}

func TestParallelWriterOffsetMatchesSequential(t *testing.T) {
	var seqBuf, parBuf bytes.Buffer
	sw := NewWriterSize(&seqBuf, 1000)
	pw := NewParallelWriterSize(&parBuf, 1000, 4)
	rng := rand.New(rand.NewSource(3))
	chunk := make([]byte, 700)
	for i := 0; i < 40; i++ {
		rng.Read(chunk)
		n := rng.Intn(len(chunk))
		if _, err := sw.Write(chunk[:n]); err != nil {
			t.Fatal(err)
		}
		if _, err := pw.Write(chunk[:n]); err != nil {
			t.Fatal(err)
		}
		if so, po := sw.Offset(), pw.Offset(); so != po {
			t.Fatalf("write %d: sequential offset %v, parallel offset %v", i, so, po)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if so, po := sw.Offset(), pw.Offset(); so != po {
		t.Errorf("post-close: sequential offset %v, parallel offset %v", so, po)
	}
	if !bytes.Equal(seqBuf.Bytes(), parBuf.Bytes()) {
		t.Error("interleaved-write output mismatch")
	}
}

func TestParallelReaderSeek(t *testing.T) {
	// Write known chunks at known offsets with the parallel writer, then
	// seek back through them with the parallel reader.
	var buf bytes.Buffer
	w := NewParallelWriterSize(&buf, 16, 3)
	var offsets []VOffset
	chunks := [][]byte{
		[]byte("first block data"),
		[]byte("second chunk!!!!"),
		[]byte("third and last.."),
	}
	for _, c := range chunks {
		offsets = append(offsets, w.Offset())
		if _, err := w.Write(c); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewParallelReader(bytes.NewReader(buf.Bytes()), 3)
	defer r.Close()
	for i := len(chunks) - 1; i >= 0; i-- {
		if err := r.Seek(offsets[i]); err != nil {
			t.Fatalf("Seek(%v): %v", offsets[i], err)
		}
		if got := r.Offset(); got != offsets[i] {
			t.Errorf("Offset after Seek = %v, want %v", got, offsets[i])
		}
		got := make([]byte, len(chunks[i]))
		if _, err := io.ReadFull(r, got); err != nil {
			t.Fatalf("read after seek: %v", err)
		}
		if !bytes.Equal(got, chunks[i]) {
			t.Errorf("chunk %d after seek = %q, want %q", i, got, chunks[i])
		}
	}
}

func TestParallelReaderSeekIntraBlock(t *testing.T) {
	data := []byte("0123456789abcdefghijklmnopqrstuv")
	raw := compress(t, data, 0)
	r := NewParallelReader(bytes.NewReader(raw), 2)
	defer r.Close()
	if err := r.Seek(MakeVOffset(0, 10)); err != nil {
		t.Fatalf("Seek: %v", err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data[10:]) {
		t.Errorf("after intra seek = %q, want %q", got, data[10:])
	}
}

func TestParallelReaderSeekBeyondBlock(t *testing.T) {
	raw := compress(t, []byte("tiny"), 0)
	r := NewParallelReader(bytes.NewReader(raw), 2)
	defer r.Close()
	if err := r.Seek(MakeVOffset(0, 100)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Seek beyond block = %v, want ErrCorrupt", err)
	}
}

func TestParallelReaderSeekUnseekable(t *testing.T) {
	raw := compress(t, []byte("x"), 0)
	r := NewParallelReader(io.MultiReader(bytes.NewReader(raw)), 2)
	defer r.Close()
	if err := r.Seek(0); err == nil {
		t.Error("Seek on unseekable reader succeeded")
	}
}

func TestParallelReaderOffsetParity(t *testing.T) {
	data := testData(3*MaxPayload+500, 13)
	raw := compress(t, data, 4096)
	seq := NewReader(bytes.NewReader(raw))
	par := NewParallelReader(bytes.NewReader(raw), 3)
	defer par.Close()
	buf1 := make([]byte, 777)
	buf2 := make([]byte, 777)
	for step := 0; ; step++ {
		if so, po := seq.Offset(), par.Offset(); so != po {
			t.Fatalf("step %d: sequential offset %v, parallel offset %v", step, so, po)
		}
		n1, err1 := io.ReadFull(seq, buf1)
		n2, err2 := io.ReadFull(par, buf2)
		if n1 != n2 {
			t.Fatalf("step %d: read %d vs %d bytes", step, n1, n2)
		}
		if !bytes.Equal(buf1[:n1], buf2[:n2]) {
			t.Fatalf("step %d: data mismatch", step)
		}
		if err1 != nil || err2 != nil {
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("step %d: err %v vs %v", step, err1, err2)
			}
			break
		}
	}
}

func TestParallelReaderMissingEOFMarker(t *testing.T) {
	raw := compress(t, []byte("data"), 0)
	truncated := raw[:len(raw)-len(eofMarker)]
	r := NewParallelReader(bytes.NewReader(truncated), 2)
	defer r.Close()
	if _, err := io.ReadAll(r); !errors.Is(err, ErrNoEOFMarker) {
		t.Errorf("err = %v, want ErrNoEOFMarker", err)
	}
}

func TestParallelReaderCorruptCRC(t *testing.T) {
	raw := compress(t, []byte("payload payload payload"), 0)
	raw[len(raw)-len(eofMarker)-8] ^= 0xff
	r := NewParallelReader(bytes.NewReader(raw), 2)
	defer r.Close()
	if _, err := io.ReadAll(r); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

// The first error must be the first in stream order, not whichever
// worker happens to fail first: corrupt an early block and a late block
// and check the early one is always reported.
func TestParallelReaderDeterministicFirstError(t *testing.T) {
	data := testData(8*MaxPayload, 17)
	raw := compress(t, data, 2048)
	// Corrupt the CRC of the 3rd block and the 20th block.
	var starts []int
	r := NewReader(bytes.NewReader(raw))
	for {
		starts = append(starts, int(r.nextStart))
		if err := r.readBlock(); err != nil {
			break
		}
	}
	if len(starts) < 25 {
		t.Fatalf("fixture too small: %d blocks", len(starts))
	}
	mutated := append([]byte(nil), raw...)
	mutated[starts[3]-5] ^= 0xff  // CRC bytes live at the end of the previous member
	mutated[starts[20]-5] ^= 0xff // a later corruption that must NOT win
	for trial := 0; trial < 10; trial++ {
		pr := NewParallelReader(bytes.NewReader(mutated), 4)
		buf, err := io.ReadAll(pr)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trial %d: err = %v, want ErrCorrupt", trial, err)
		}
		// Everything before the corrupt block must have been delivered.
		want := data[:2048*2] // blocks 0 and 1 precede the corrupted member 2
		if !bytes.Equal(buf[:len(want)], want) {
			t.Fatalf("trial %d: prefix before corrupt block differs", trial)
		}
		pr.Close()
	}
}

func TestParallelWriterPropagatesSinkError(t *testing.T) {
	w := NewParallelWriterSize(&failAfter{n: 1}, 512, 4)
	data := testData(100*512, 23)
	_, werr := w.Write(data)
	ferr := w.Flush()
	cerr := w.Close()
	if werr == nil && ferr == nil && cerr == nil {
		t.Error("sink write error never surfaced")
	}
}

// failAfter accepts n writes then fails.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, fmt.Errorf("sink failed")
	}
	f.n--
	return len(p), nil
}

func TestParallelWriterRejectsUseAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w := NewParallelWriter(&buf, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("late")); err == nil {
		t.Error("Write after Close succeeded")
	}
	if err := w.Close(); err == nil {
		t.Error("second Close succeeded")
	}
}

func TestParallelWriterEmpty(t *testing.T) {
	var buf bytes.Buffer
	w := NewParallelWriter(&buf, 4)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), eofMarker) {
		t.Errorf("empty parallel file = %d bytes, want just the EOF marker", buf.Len())
	}
}

// Round-trip through ParallelWriter → ParallelReader while a second
// goroutine hammers Offset, exercised under -race by the CI target.
func TestParallelConcurrentRoundTrip(t *testing.T) {
	data := testData(20*MaxPayload, 29)
	var buf bytes.Buffer
	w := NewParallelWriterSize(&buf, 8192, 4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		// Offset is safe to interleave with Write from the writer's own
		// goroutine only; here we just verify the pipeline under load by
		// consuming the data on the other side once writing finishes.
		defer wg.Done()
		<-stop
	}()
	for off := 0; off < len(data); off += 1000 {
		end := off + 1000
		if end > len(data) {
			end = len(data)
		}
		if _, err := w.Write(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	r := NewParallelReader(bytes.NewReader(buf.Bytes()), 4)
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("concurrent round trip mismatch")
	}
}

// Abandoning a ParallelReader mid-stream then closing it must not
// deadlock or leak (the leak check lives in parpipe's tests; here we
// check Close unblocks the pipeline promptly).
func TestParallelReaderCloseMidStream(t *testing.T) {
	data := testData(50*MaxPayload, 31)
	raw := compressParallel(t, data, 0, 4)
	r := NewParallelReader(bytes.NewReader(raw), 2)
	buf := make([]byte, 100)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(buf); err == nil {
		t.Error("Read after Close succeeded")
	}
}

// Consecutive empty blocks must be skipped iteratively, not recursively:
// a file with hundreds of thousands of empty members once overflowed the
// stack. Regression for the readBlock recursion.
func TestManyConsecutiveEmptyBlocks(t *testing.T) {
	const n = 200000
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		buf.Write(eofMarker)
	}
	payload := compress(t, []byte("tail data after a sea of empties"), 0)
	stream := append(buf.Bytes(), payload...)

	got, err := io.ReadAll(NewReader(bytes.NewReader(stream)))
	if err != nil {
		t.Fatalf("sequential read over %d empty blocks: %v", n, err)
	}
	if string(got) != "tail data after a sea of empties" {
		t.Errorf("data after empty blocks = %q", got)
	}

	pr := NewParallelReader(bytes.NewReader(stream), 2)
	defer pr.Close()
	got, err = io.ReadAll(pr)
	if err != nil {
		t.Fatalf("parallel read over %d empty blocks: %v", n, err)
	}
	if string(got) != "tail data after a sea of empties" {
		t.Errorf("parallel data after empty blocks = %q", got)
	}
}

// AutoWorkers must track the apparent CPU count: one worker per CPU,
// capped at maxAutoWorkers, and exactly 1 on a single-CPU host so every
// constructor's sequential path engages.
func TestAutoWorkersTracksProcs(t *testing.T) {
	old := gomaxprocs
	defer func() { gomaxprocs = old }()
	for _, tc := range []struct{ procs, want int }{
		{1, 1},
		{2, 2},
		{maxAutoWorkers, maxAutoWorkers},
		{maxAutoWorkers + 4, maxAutoWorkers},
	} {
		gomaxprocs = func(int) int { return tc.procs }
		if got := AutoWorkers(); got != tc.want {
			t.Errorf("AutoWorkers with %d CPUs = %d, want %d", tc.procs, got, tc.want)
		}
	}
	// An explicit worker count passes through untouched, even past the cap.
	gomaxprocs = func(int) int { return 1 }
	if got := resolveWorkers(12); got != 12 {
		t.Errorf("resolveWorkers(12) = %d, want 12", got)
	}
}
