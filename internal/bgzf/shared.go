// Process-wide shared deflate pool. A conversion run opens many
// short-lived BGZF writers — one BAM shard per rank, one spill run per
// sorted chunk — and giving each its own worker pool multiplies
// goroutines while leaving most of them idle. SharedPool keeps one warm
// pool the writers attach to (parpipe.NewOnPool), and sizes it from
// measurement rather than CPU count alone: how many workers the recent
// blocks of all attached streams kept busy, reported alongside an EWMA
// of the bytes/s one worker achieves.

package bgzf

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parseq/internal/obs"
	"parseq/internal/parpipe"
)

var (
	sharedOnce  sync.Once
	sharedPool  *parpipe.Pool
	sharedSizer *poolSizer
)

// SharedPool returns the process-wide deflate worker pool, created on
// first use with AutoWorkers() workers and a ceiling of GOMAXPROCS.
// The pool lives for the process; writers attach and detach freely.
func SharedPool() *parpipe.Pool {
	sharedOnce.Do(func() {
		max := runtime.GOMAXPROCS(0)
		if max < 1 {
			max = 1
		}
		sharedPool = parpipe.NewPool(AutoWorkers(), max, 4*max)
		sharedSizer = newPoolSizer(sharedPool)
	})
	return sharedPool
}

// NewSharedParallelWriter returns a parallel BGZF writer whose deflate
// jobs run on SharedPool instead of a private worker pool. Output
// bytes, virtual offsets and error behaviour are identical to
// NewParallelWriter's; only the execution substrate differs, so the
// many short-lived writers a converter rank opens stop paying a pool
// start/stop per stream. Each compressed block also feeds the shared
// pool's throughput sizer.
func NewSharedParallelWriter(w io.Writer) *ParallelWriter {
	pool := SharedPool()
	pw := newParallelWriter(w, MaxPayload)
	pw.sizer = sharedSizer
	pw.pipe = parpipe.NewOnPool(pool, pipeDepth(pool.Max()), pw.compress, obs.Default(), "bgzf.deflate")
	go pw.drain()
	return pw
}

// ObserveSharedDeflate feeds one deflate job that ran on SharedPool but
// outside the BGZF writers — the BAMZ block compressor — into the
// pool's throughput sizer: n payload bytes compressed in d of worker
// wall time. Every deflate consumer of the shared pool contributes to
// the same demand window, so the pool sizes for the true aggregate
// load (and the bgzf.shared_pool.throughput gauge the admission-control
// plan reads stays honest).
func ObserveSharedDeflate(n int, d time.Duration) {
	SharedPool() // force sharedSizer initialisation
	sharedSizer.observe(n, d)
}

const (
	sizerAlpha  = 0.2 // EWMA smoothing for per-worker throughput, per window
	resizeEvery = 32  // blocks between resize decisions
)

// poolSizer adapts the shared pool's worker count to measured load.
// Every compressed block contributes its payload size and worker wall
// time to the current window. Every resizeEvery blocks the window
// closes: its bytes over its busy time — what one worker delivered,
// weighted by bytes, so small or highly compressible blocks do not
// inflate it — feeds the per-worker throughput EWMA, and the pool is
// resized to the mean number of workers that were busy while any was,
// ceil(busy time / active time), so a pause between bursts does not
// read as low demand. The size is bumped while the queue is outrunning
// the workers, and clamped by the pool to [1, GOMAXPROCS].
type poolSizer struct {
	pool *parpipe.Pool

	mu        sync.Mutex
	perWorker float64       // EWMA of one worker's bytes/s
	winBytes  int64         // payload bytes compressed in this window
	winBusy   time.Duration // worker wall time spent on them, summed
	winActive time.Duration // wall time covered by at least one of them
	lastEnd   time.Time     // when the latest block finished
	blocks    int
}

func newPoolSizer(p *parpipe.Pool) *poolSizer {
	return &poolSizer{pool: p}
}

// observe accounts one compressed block of n payload bytes that took d
// of worker wall time, and resizes the pool when a window completes.
func (s *poolSizer) observe(n int, d time.Duration) {
	if n <= 0 {
		return
	}
	if d <= 0 {
		d = 1
	}
	s.mu.Lock()
	now := time.Now()
	from := now.Add(-d)
	if from.Before(s.lastEnd) {
		from = s.lastEnd // that stretch is already counted as active
	}
	s.lastEnd = now
	s.winActive += now.Sub(from)
	s.winBusy += d
	s.winBytes += int64(n)
	s.blocks++
	if s.blocks < resizeEvery {
		s.mu.Unlock()
		return
	}
	bps := float64(s.winBytes) / s.winBusy.Seconds()
	if s.perWorker == 0 {
		s.perWorker = bps
	} else {
		s.perWorker += sizerAlpha * (bps - s.perWorker)
	}
	per := s.perWorker
	need := int(math.Ceil(float64(s.winBusy) / float64(max(s.winActive, 1))))
	s.blocks = 0
	s.winBytes, s.winBusy, s.winActive = 0, 0, 0
	s.mu.Unlock()

	if s.pool.Backlog() > s.pool.Workers() && need <= s.pool.Workers() {
		// The queue is outrunning the workers regardless of what the
		// window average says; grow by at least one.
		need = s.pool.Workers() + 1
	}
	got := s.pool.SetWorkers(need)
	if reg := obs.Default(); reg != nil {
		reg.Gauge("bgzf.shared.workers").Set(int64(got))
		// The measured per-worker EWMA bytes/s behind the sizing
		// decision — the observability half of admission control: an
		// operator (or a future scheduler) can see the throughput the
		// pool believes one worker delivers.
		reg.Gauge("bgzf.shared_pool.throughput").Set(int64(per))
	}
}

// blockObs holds DeflateBlock's telemetry handles, resolved once per
// registry rather than once per block.
var blockObs atomic.Pointer[codecObs]

func blockCodecObs() *codecObs {
	reg := obs.Default()
	if reg == nil {
		return nil
	}
	m := blockObs.Load()
	if m == nil || m.reg != reg {
		m = newCodecObs(reg, "deflate")
		blockObs.Store(m)
	}
	return m
}

// DeflateBlock compresses one payload of at most MaxPayload bytes into a
// complete BGZF member, reusing dst's backing array when it is large
// enough. The bytes equal what the sequential Writer emits for the same
// block. It is the writer-less form of the codec for callers that cut
// their own blocks out of buffers they already hold (the PAMX column
// groups) and run the jobs wherever they like — typically SharedPool.
// Every call feeds the bgzf.deflate.* counters and the shared pool's
// throughput sizer, like a block of a SharedPool writer. Safe for
// concurrent use.
func DeflateBlock(dst, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("bgzf: %d-byte payload exceeds the %d-byte block limit", len(payload), MaxPayload)
	}
	t0 := time.Now()
	block := wrapBlock(dst, payload)
	took := time.Since(t0)
	blockCodecObs().observe(took, len(payload), len(block))
	ObserveSharedDeflate(len(payload), took)
	return block, nil
}

// EOFMarker returns the canonical empty member that terminates a BGZF
// stream. The slice is shared: callers must not modify it.
func EOFMarker() []byte { return eofMarker }
