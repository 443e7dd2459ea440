package bgzf

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"

	"parseq/internal/obs"
)

// placement is where the worker rule runs a stream's blocks.
type placement string

const (
	onCaller  placement = "caller"
	onPrivate placement = "private pool"
	onShared  placement = "SharedPool"
)

// writerPlacement is the rule for writers and deflate batches.
func writerPlacement(n int) placement {
	switch {
	case n == 1:
		return onCaller
	case n > 1:
		return onPrivate
	}
	return onShared
}

// readerPlacement is the rule for readers, with AutoWorkers() > 1: an
// adaptive count reads ahead on a private pool of that many.
func readerPlacement(n int) placement {
	if n == 1 {
		return onCaller
	}
	return onPrivate
}

// sizerWindow snapshots the shared pool sizer's open window. A stream of
// fewer than resizeEvery blocks that feeds it always changes it.
func sizerWindow() (int, int64) {
	SharedPool()
	sharedSizer.mu.Lock()
	defer sharedSizer.mu.Unlock()
	return sharedSizer.blocks, sharedSizer.winBytes
}

// splitPayloads cuts data into MaxPayload blocks, as a Writer does.
func splitPayloads(data []byte) [][]byte {
	var payloads [][]byte
	for len(data) > 0 {
		n := min(len(data), MaxPayload)
		payloads = append(payloads, data[:n])
		data = data[n:]
	}
	return payloads
}

// noNewGoroutine fails t when more goroutines run than before.
func noNewGoroutine(t *testing.T, before int) {
	t.Helper()
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("%d goroutines started on the caller path", now-before)
	}
}

// TestWorkerRulePlacesBlocks runs the writer, the reader and the deflate
// batch at codec worker counts −1, 0, 1 and 3 and checks where their
// blocks ran, from the outside: a pool-backed pipeline moves
// parpipe.bgzf.<dir>.items, only a private one (dedicated workers) moves
// its idle_ns, only SharedPool jobs move the shared sizer's window, and
// the caller path starts no goroutine. Whatever the count, the bytes and
// virtual offsets are the same.
func TestWorkerRulePlacesBlocks(t *testing.T) {
	old := gomaxprocs
	gomaxprocs = func(int) int { return 4 }
	defer func() { gomaxprocs = old }()
	reg := obs.New()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)

	data := testData(5*MaxPayload+321, 41) // six blocks
	raw := compress(t, data, MaxPayload)
	payloads := splitPayloads(data)

	streams := []struct {
		name, dir string
		rule      func(int) placement
		// run streams the blocks at n and returns what a reader of the
		// output sees; before is the goroutine count ahead of the stream.
		run func(t *testing.T, n, before int) []byte
	}{
		{"writer", "deflate", writerPlacement, func(t *testing.T, n, before int) []byte {
			var buf bytes.Buffer
			w := NewParallelWriter(&buf, n)
			var offs []VOffset
			for rest := data; len(rest) > 0; {
				k := min(len(rest), 10000)
				if _, err := w.Write(rest[:k]); err != nil {
					t.Fatal(err)
				}
				rest = rest[k:]
				offs = append(offs, w.Offset())
			}
			if n == 1 {
				noNewGoroutine(t, before)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			return append(buf.Bytes(), fmt.Sprint(offs)...)
		}},
		{"reader", "inflate", readerPlacement, func(t *testing.T, n, before int) []byte {
			r := NewParallelReader(bytes.NewReader(raw), n)
			defer r.Close()
			var out []byte
			for {
				b, off, err := r.NextBlock()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if n == 1 {
					noNewGoroutine(t, before)
				}
				out = append(append(out, b...), off.String()...)
				r.Recycle(b)
			}
			return out
		}},
		{"batch", "deflate", writerPlacement, func(t *testing.T, n, before int) []byte {
			members := make([][]byte, len(payloads))
			if err := DeflateBlocks(members, payloads, n); err != nil {
				t.Fatal(err)
			}
			if n == 1 {
				noNewGoroutine(t, before)
			}
			return append(bytes.Join(members, nil), eofMarker...)
		}},
	}
	for _, st := range streams {
		var first []byte
		for _, n := range []int{-1, 0, 1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", st.name, n), func(t *testing.T) {
				items := reg.Counter("parpipe.bgzf." + st.dir + ".items")
				idle := reg.Counter("parpipe.bgzf." + st.dir + ".idle_ns")
				items0, idle0 := items.Value(), idle.Value()
				blocks0, bytes0 := sizerWindow()
				got := st.run(t, n, runtime.NumGoroutine())
				blocks1, bytes1 := sizerWindow()

				want := st.rule(n)
				if moved := items.Value() != items0; moved != (want != onCaller) {
					t.Errorf("%s: parpipe.bgzf.%s.items moved = %v", want, st.dir, moved)
				}
				if moved := idle.Value() != idle0; moved != (want == onPrivate) {
					t.Errorf("%s: parpipe.bgzf.%s.idle_ns moved = %v", want, st.dir, moved)
				}
				if moved := blocks1 != blocks0 || bytes1 != bytes0; moved != (want == onShared) {
					t.Errorf("%s: shared sizer window moved = %v", want, moved)
				}
				if first == nil {
					first = got
				} else if !bytes.Equal(got, first) {
					t.Error("bytes or virtual offsets differ from workers=-1")
				}
			})
		}
	}
}

// Only jobs that ran on SharedPool feed its sizer, whose throughput
// gauge admission control reads: a block deflated on the caller or on a
// private pool leaves the window where it was.
func TestDeflateOffSharedPoolLeavesSizerAlone(t *testing.T) {
	payloads := splitPayloads(testData(3*MaxPayload, 43))
	for _, n := range []int{1, 3} {
		blocks0, bytes0 := sizerWindow()
		if err := DeflateBlocks(make([][]byte, len(payloads)), payloads, n); err != nil {
			t.Fatal(err)
		}
		if blocks1, bytes1 := sizerWindow(); blocks1 != blocks0 || bytes1 != bytes0 {
			t.Errorf("a batch at workers=%d moved the shared sizer's window", n)
		}
	}
}

func TestDeflateBlocksRejectsOversizePayload(t *testing.T) {
	members := make([][]byte, 2)
	err := DeflateBlocks(members, [][]byte{{1}, make([]byte, MaxPayload+1)}, 1)
	if err == nil || members[0] != nil {
		t.Errorf("oversize batch: err %v, first member %d bytes; want an error before any job", err, len(members[0]))
	}
}
