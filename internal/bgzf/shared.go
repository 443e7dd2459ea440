// Process-wide shared deflate pool. A conversion run opens many
// short-lived BGZF writers — one BAM shard per rank, one spill run per
// sorted chunk — and giving each its own worker pool multiplies
// goroutines while leaving most of them idle. SharedPool keeps one warm
// pool the adaptive writers and deflate batches attach to
// (parpipe.NewOnPool), and sizes it from measurement rather than CPU
// count alone: how many workers the recent blocks of all attached
// streams kept busy, reported alongside an EWMA of the bytes/s one
// worker achieves.

package bgzf

import (
	"fmt"
	"math"
	"runtime"
	"sync"
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

// DeflateBlocks compresses each payload of at most MaxPayload bytes into
// a complete BGZF member: members[i] becomes the member of payloads[i],
// reusing its backing array when it is large enough. The bytes equal
// what a Writer emits for the same block, every block lands in the
// bgzf.deflate.* counters, and the jobs are placed by workers as a
// Writer's blocks are (see the package comment; 1 runs them on the
// caller). It returns once every job has run; a payload over MaxPayload
// fails the batch before any does. Safe for concurrent use.
func DeflateBlocks(members, payloads [][]byte, workers int) error {
	for _, p := range payloads {
		if len(p) > MaxPayload {
			return fmt.Errorf("bgzf: %d-byte payload exceeds the %d-byte block limit", len(p), MaxPayload)
		}
	}
	met := codecObsFor(&deflateObs, "deflate")
	var sizer *poolSizer // set before any job runs
	job := func(i int) { members[i] = deflate(members[i], payloads[i], met, sizer) }
	pipe, s := deflatePipe(workers, job)
	sizer = s
	if pipe == nil {
		for i := range payloads {
			job(i)
		}
		return nil
	}
	go func() {
		for i := range payloads {
			pipe.Submit(i)
		}
		pipe.Close()
	}()
	for range pipe.Out() {
	}
	return nil
}

// deflate wraps payload into a member in dst, accounting it in the
// bgzf.deflate.* handles met and, for a job that ran on SharedPool, in
// the pool's sizer; either may be nil.
func deflate(dst, payload []byte, met *codecObs, sizer *poolSizer) []byte {
	if met == nil && sizer == nil {
		return wrapBlock(dst, payload)
	}
	t0 := time.Now()
	dst = wrapBlock(dst, payload)
	took := time.Since(t0)
	met.observe(took, len(payload), len(dst))
	if sizer != nil {
		sizer.observe(len(payload), took)
	}
	return dst
}

// EOFMarker returns the canonical empty member that terminates a BGZF
// stream. The slice is shared: callers must not modify it.
func EOFMarker() []byte { return eofMarker }
