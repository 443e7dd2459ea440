package pamx

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"parseq/internal/bgzf"
	"parseq/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive the tests: every
// flush stage a Writer starts must be joined by its Close. The shared
// deflate pool lives for the process, so it is started first.
func TestMain(m *testing.M) {
	pool := bgzf.SharedPool()
	leakcheck.Main(m, pool.Max()-pool.Workers())
}

// TestFileBytesAcrossCodecs is the byte-identity table of the pipelined
// writer: one dataset gives one PAMX file for every CodecWorkers ×
// GOMAXPROCS at a given group size, and every column blob in it is what
// a plain sequential bgzf.Writer emits for that column's bytes — members
// cut at MaxPayload plus the EOF marker.
func TestFileBytesAcrossCodecs(t *testing.T) {
	bamPath, d := writeTestBAM(t, 2500)
	bodies := readBAMBodies(t, bamPath)
	header := d.Header
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	for _, groupBytes := range []int64{4 << 10, 0} {
		var want []byte
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for _, workers := range []int{0, 1, 4} {
				var buf bytes.Buffer
				w, err := NewWriter(&buf, header, Options{CodecWorkers: workers, GroupBytes: groupBytes})
				if err != nil {
					t.Fatal(err)
				}
				for _, body := range bodies {
					if err := w.WriteBody(body); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if got := w.Count(); got != int64(len(bodies)) {
					t.Fatalf("Count = %d, want %d", got, len(bodies))
				}
				if want == nil {
					want = buf.Bytes()
					checkAgainstSequentialCodec(t, want, w.Groups())
				} else if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("group bytes %d, GOMAXPROCS %d, workers %d: file differs from the first", groupBytes, procs, workers)
				}
			}
		}
	}
}

// checkAgainstSequentialCodec inflates every column blob of a PAMX file
// and requires a sequential bgzf.Writer to reproduce the blob exactly.
func checkAgainstSequentialCodec(t *testing.T, file []byte, groups int) {
	t.Helper()
	f, err := Open(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumGroups() != groups {
		t.Fatalf("Groups() = %d, footer holds %d", groups, f.NumGroups())
	}
	multiBlock := false
	for g := 0; g < f.NumGroups(); g++ {
		for c, e := range f.Group(g).Cols {
			if e.CLen == 0 {
				continue
			}
			blob := file[e.Off : e.Off+e.CLen]
			col, err := io.ReadAll(bgzf.NewReader(bytes.NewReader(blob)))
			if err != nil {
				t.Fatalf("group %d column %d: %v", g, c, err)
			}
			var seq bytes.Buffer
			zw := bgzf.NewWriter(&seq)
			zw.Write(col)
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, seq.Bytes()) {
				t.Fatalf("group %d column %d: blob differs from the sequential bgzf.Writer's", g, c)
			}
			multiBlock = multiBlock || len(col) > bgzf.MaxPayload
		}
	}
	if groups < 20 && !multiBlock {
		t.Fatal("no column spans two BGZF blocks: the dataset is too small to pin block cutting")
	}
}

var errInjected = errors.New("injected write failure")

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errInjected
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWriterFailureIsSticky fails the underlying writer after N bytes
// for N from inside the prologue, through the groups, to the last byte
// of the trailer: the injected error must come back from NewWriter, a
// WriteBody or Close — whichever the flush stage reaches first — stay
// sticky, and leave no flush goroutine behind.
func TestWriterFailureIsSticky(t *testing.T) {
	bamPath, d := writeTestBAM(t, 1500)
	bodies := readBAMBodies(t, bamPath)
	var good bytes.Buffer
	opts := Options{CodecWorkers: 1, GroupBytes: 32 << 10}
	ref, err := NewWriter(&good, d.Header, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range bodies {
		if err := ref.WriteBody(body); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	total := good.Len()
	prologue := len(encodeHeader(ref.header))
	if ref.Groups() < 4 {
		t.Fatalf("only %d groups", ref.Groups())
	}

	base := runtime.NumGoroutine()
	cuts := []int{0, prologue / 2, prologue, prologue + 1, total / 3, total / 2, total - 40, total - 9, total - 1}
	for _, workers := range []int{0, 1, 4} {
		opts.CodecWorkers = workers
		for _, n := range cuts {
			w, err := NewWriter(&failingWriter{n: n}, ref.header, opts)
			if n < prologue {
				if !errors.Is(err, errInjected) {
					t.Fatalf("workers %d, fail after %d: NewWriter = %v, want the injected error", workers, n, err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			var werr error
			for _, body := range bodies {
				if werr = w.WriteBody(body); werr != nil {
					break
				}
			}
			cerr := w.Close()
			if !errors.Is(cerr, errInjected) {
				t.Fatalf("workers %d, fail after %d: Close = %v, want the injected error", workers, n, cerr)
			}
			if werr != nil && !errors.Is(werr, errInjected) {
				t.Fatalf("workers %d, fail after %d: WriteBody = %v, want the injected error", workers, n, werr)
			}
			if err := w.WriteBody(bodies[0]); !errors.Is(err, errInjected) {
				t.Fatalf("workers %d, fail after %d: WriteBody after Close = %v, want the sticky error", workers, n, err)
			}
		}
	}
	if !leakcheck.Settle(base) {
		t.Fatalf("%d goroutines after the failed writers, %d before", runtime.NumGoroutine(), base)
	}
}
