package bgzf

import (
	"bytes"
	"encoding/binary"
	"io"
	"sync"
	"testing"
	"time"

	"parseq/internal/obs"
	"parseq/internal/parpipe"
)

func compressShared(t testing.TB, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewParallelWriter(&buf, 0)
	if _, err := w.Write(data); err != nil {
		t.Fatalf("shared Write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("shared Close: %v", err)
	}
	return buf.Bytes()
}

func TestSharedWriterBitIdenticalToSequential(t *testing.T) {
	data := testData(6*MaxPayload+999, 11)
	seq := compress(t, data, MaxPayload)
	got := compressShared(t, data)
	if !bytes.Equal(seq, got) {
		t.Errorf("shared-pool output differs from sequential (%d vs %d bytes)", len(got), len(seq))
	}
}

// Short-lived writers attaching to the shared pool one after another —
// the converter's per-rank shard pattern — must each produce the
// sequential stream.
func TestSharedWriterSequentialReuse(t *testing.T) {
	for i := 0; i < 5; i++ {
		data := testData(2*MaxPayload+i*1000, int64(i))
		if !bytes.Equal(compress(t, data, MaxPayload), compressShared(t, data)) {
			t.Fatalf("iteration %d: shared output differs", i)
		}
	}
}

func TestSharedWriterConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			data := testData(3*MaxPayload+int(seed)*317, seed)
			if !bytes.Equal(compress(t, data, MaxPayload), compressShared(t, data)) {
				t.Errorf("seed %d: shared output differs", seed)
			}
		}(int64(i))
	}
	wg.Wait()
}

func TestSharedPoolSingleton(t *testing.T) {
	if SharedPool() != SharedPool() {
		t.Error("SharedPool returned distinct pools")
	}
	if SharedPool().Max() < 1 {
		t.Errorf("shared pool max = %d", SharedPool().Max())
	}
}

// The sizer must export its per-worker EWMA bytes/s so operators can
// see the throughput behind the pool's sizing decisions.
func TestSharedPoolThroughputGauge(t *testing.T) {
	reg := obs.New()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	s := newPoolSizer(SharedPool())
	// One full window at a known rate: 64 KiB per block in 1ms each.
	for i := 0; i < resizeEvery; i++ {
		s.observe(64<<10, time.Millisecond)
	}
	got := reg.Gauge("bgzf.shared_pool.throughput").Value()
	if got <= 0 {
		t.Fatalf("bgzf.shared_pool.throughput = %d, want > 0", got)
	}
	// 64 KiB / 1 ms = ~64 MiB/s; the EWMA of a constant is the constant.
	want := int64(64 << 10 * 1000)
	if got < want/2 || got > want*2 {
		t.Errorf("throughput gauge = %d, want about %d", got, want)
	}
	if reg.Gauge("bgzf.shared.workers").Value() < 1 {
		t.Errorf("bgzf.shared.workers gauge = %d", reg.Gauge("bgzf.shared.workers").Value())
	}
}

// The per-worker throughput is bytes over busy time, not a mean of
// per-block rates: small fast blocks between the big slow ones (the
// PAMX coordinate and CIGAR columns next to qualities) must not make a
// worker look faster than it is.
func TestPoolSizerThroughputIsByteWeighted(t *testing.T) {
	reg := obs.New()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	pool := parpipe.NewPool(1, 2, 4)
	defer pool.Close()
	s := newPoolSizer(pool)
	for i := 0; i < resizeEvery/2; i++ {
		s.observe(64<<10, 4*time.Millisecond) // 16 MiB/s
		s.observe(1<<10, 10*time.Microsecond) // 100 MiB/s, 1.5% of the bytes
	}
	got := float64(reg.Gauge("bgzf.shared_pool.throughput").Value())
	if want := float64(16 << 20); got < 0.95*want || got > 1.1*want {
		t.Errorf("throughput gauge = %.0f bytes/s, want about %.0f", got, want)
	}
}

// A pause before a burst is not low demand: the pool is sized by how
// many workers were busy while any was, so blocks arriving four deep
// after an idle stretch must not leave it at one worker.
func TestPoolSizerIgnoresIdleGaps(t *testing.T) {
	pool := parpipe.NewPool(1, 4, 8)
	defer pool.Close()
	s := newPoolSizer(pool)
	s.observe(64<<10, time.Millisecond)
	time.Sleep(100 * time.Millisecond) // the idle stretch
	for i := 1; i < resizeEvery; i++ {
		time.Sleep(time.Millisecond)          // a block finishes every ms or so ...
		s.observe(64<<10, 4*time.Millisecond) // ... and each took four
	}
	if got := pool.Workers(); got < 2 {
		t.Errorf("pool sized to %d worker after a burst that kept ~4 busy", got)
	}
}

// DeflateBlocks is the writer-less codec: members deflated one by one —
// by concurrent one-payload batches on their callers, into reused
// buffers — and followed by the EOF marker are the stream the
// sequential Writer produces, and every block lands in the
// bgzf.deflate.* counters.
func TestDeflateBlockMatchesSequentialWriter(t *testing.T) {
	data := testData(5*MaxPayload+4321, 23)
	want := compress(t, data, MaxPayload)
	reg := obs.New()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)

	var payloads [][]byte
	for rest := data; len(rest) > 0; {
		n := min(len(rest), MaxPayload)
		payloads = append(payloads, rest[:n])
		rest = rest[n:]
	}
	members := make([][]byte, len(payloads))
	for round := 0; round < 2; round++ { // the second round reuses the buffers
		var wg sync.WaitGroup
		for i := range payloads {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := DeflateBlocks(members[i:i+1], payloads[i:i+1], 1); err != nil {
					t.Errorf("DeflateBlocks(%d): %v", i, err)
				}
			}(i)
		}
		wg.Wait()
		got := append(bytes.Join(members, nil), EOFMarker()...)
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: members + EOF marker differ from the sequential stream", round)
		}
	}
	if got, want := reg.Counter("bgzf.deflate.blocks").Value(), int64(2*len(payloads)); got != want {
		t.Errorf("bgzf.deflate.blocks = %d, want %d", got, want)
	}
	if got, want := reg.Counter("bgzf.deflate.bytes_in").Value(), int64(2*len(data)); got != want {
		t.Errorf("bgzf.deflate.bytes_in = %d, want %d", got, want)
	}
}

// memberWrites keeps a copy of every Write a BGZF writer issues.
type memberWrites struct{ writes [][]byte }

func (m *memberWrites) Write(p []byte) (int, error) {
	m.writes = append(m.writes, append([]byte(nil), p...))
	return len(p), nil
}

// Every writer hands its sink exactly one whole member per Write, the EOF
// marker included, however the caller's writes and flushes fall: the
// contract a sink that records member offsets (BAMZ's member table)
// relies on.
func TestWritersIssueOneWritePerMember(t *testing.T) {
	data := testData(4*MaxPayload+777, 29)
	const payload = 10000
	writers := map[string]func(io.Writer) *Writer{
		"inline":     func(w io.Writer) *Writer { return NewWriterSize(w, payload) },
		"private":    func(w io.Writer) *Writer { return NewParallelWriterSize(w, payload, 3) },
		"SharedPool": func(w io.Writer) *Writer { return NewParallelWriterSize(w, payload, 0) },
	}
	for name, open := range writers {
		var sink memberWrites
		w := open(&sink)
		for i, rest := 0, data; len(rest) > 0; i++ {
			n := min(len(rest), 7777)
			if _, err := w.Write(rest[:n]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rest = rest[n:]
			if i%5 == 4 {
				if err := w.Flush(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, p := range sink.writes {
			if len(p) < headerSize || p[0] != 0x1f || p[1] != 0x8b || int(binary.LittleEndian.Uint16(p[16:]))+1 != len(p) {
				t.Fatalf("%s: write %d of %d bytes is not one whole member", name, i, len(p))
			}
		}
		if last := sink.writes[len(sink.writes)-1]; !bytes.Equal(last, eofMarker) {
			t.Errorf("%s: last write is not the EOF marker", name)
		}
		stream := bytes.Join(sink.writes, nil)
		got, err := io.ReadAll(NewReader(bytes.NewReader(stream)))
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: stream does not inflate to the input (%v)", name, err)
		}
	}
}
