package mpi

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Transport is the wire underneath a Comm: point-to-point byte delivery,
// a world-wide barrier and abort signalling for one rank of a fixed-size
// world. The in-process channel world below is the reference
// implementation; internal/mpinet provides a TCP-backed one so the same
// rank code spans processes and hosts. Comm builds every collective,
// rank validation, tag checking and telemetry on top of these six
// methods, so a transport only moves bytes.
//
// Send must not retain data after it returns; the caller may reuse the
// slice. Recv returns the next message from `from` in send order along
// with its tag — tag agreement is Comm's job, not the transport's.
// After Abort (local or remote), every blocked or subsequent call
// returns ErrAborted.
type Transport interface {
	Rank() int
	Size() int
	Send(to, tag int, data []byte) error
	Recv(from int) (tag int, data []byte, err error)
	Barrier() error
	Abort()
}

// Launcher runs fn across a world of the given size and returns the
// first error any rank produced. Run is the in-process Launcher; a
// distributed world's Launcher (internal/mpinet) executes only the
// local process's rank and relies on the transport for the rest of the
// world. Library code that takes a Launcher treats nil as Run.
type Launcher func(size int, fn func(*Comm) error) error

// message is one point-to-point payload.
type message struct {
	tag  int
	data []byte
}

// chanWorld is the shared state of one in-process Run invocation.
type chanWorld struct {
	size  int
	chans [][]chan message // chans[from][to]

	// telemetry is the out-of-band side channel (TelemetryCarrier):
	// buffered, drop-on-full, never part of the ordered data stream.
	telemetry chan TelemetryFrame

	abortOnce sync.Once
	abort     chan struct{}

	barrierMu    sync.Mutex
	barrierCond  *sync.Cond
	barrierCount int
	barrierGen   uint64
}

func newChanWorld(size int) *chanWorld {
	w := &chanWorld{
		size:      size,
		telemetry: make(chan TelemetryFrame, telemetryDepth),
		abort:     make(chan struct{}),
	}
	w.barrierCond = sync.NewCond(&w.barrierMu)
	w.chans = make([][]chan message, size)
	for i := range w.chans {
		w.chans[i] = make([]chan message, size)
		for j := range w.chans[i] {
			// A deep buffer decouples sender and receiver pacing; the
			// paper's algorithms exchange O(1) messages per rank pair.
			w.chans[i][j] = make(chan message, 64)
		}
	}
	return w
}

func (w *chanWorld) doAbort() {
	w.abortOnce.Do(func() {
		close(w.abort)
		// Wake any rank parked in Barrier.
		w.barrierMu.Lock()
		w.barrierCond.Broadcast()
		w.barrierMu.Unlock()
	})
}

func (w *chanWorld) aborted() bool {
	select {
	case <-w.abort:
		return true
	default:
		return false
	}
}

// chanTransport is one rank's handle on the channel world.
type chanTransport struct {
	rank int
	w    *chanWorld
}

func (t *chanTransport) Rank() int { return t.rank }
func (t *chanTransport) Size() int { return t.w.size }
func (t *chanTransport) Abort()    { t.w.doAbort() }

func (t *chanTransport) Send(to, tag int, data []byte) error {
	msg := message{tag: tag, data: append([]byte(nil), data...)}
	select {
	case t.w.chans[t.rank][to] <- msg:
		return nil
	case <-t.w.abort:
		return ErrAborted
	}
}

func (t *chanTransport) Recv(from int) (int, []byte, error) {
	select {
	case msg := <-t.w.chans[from][t.rank]:
		return msg.tag, msg.data, nil
	case <-t.w.abort:
		return 0, nil, ErrAborted
	}
}

// telemetryDepth buffers the side channel deeply enough that a busy
// rank 0 rarely costs a heartbeat; overflow drops (telemetry is
// best-effort, the data path must never feel it).
const telemetryDepth = 256

// SendTelemetry implements TelemetryCarrier: best-effort delivery to
// the world's shared telemetry channel.
func (t *chanTransport) SendTelemetry(data []byte) error {
	if t.w.aborted() {
		return ErrAborted
	}
	f := TelemetryFrame{From: t.rank, Data: append([]byte(nil), data...)}
	select {
	case t.w.telemetry <- f:
	default: // full inbox: drop rather than block
	}
	return nil
}

// Telemetry implements TelemetryCarrier: rank 0's receive channel.
func (t *chanTransport) Telemetry() <-chan TelemetryFrame { return t.w.telemetry }

// ClockSync implements ClockSyncer: in-process ranks share one clock.
func (t *chanTransport) ClockSync(samples int) (offset, rtt time.Duration, err error) {
	return 0, 0, nil
}

func (t *chanTransport) Barrier() error {
	w := t.w
	w.barrierMu.Lock()
	defer w.barrierMu.Unlock()
	if w.aborted() {
		return ErrAborted
	}
	gen := w.barrierGen
	w.barrierCount++
	if w.barrierCount == w.size {
		w.barrierCount = 0
		w.barrierGen++
		w.barrierCond.Broadcast()
		return nil
	}
	for gen == w.barrierGen && !w.aborted() {
		w.barrierCond.Wait()
	}
	if w.aborted() {
		return ErrAborted
	}
	return nil
}

// Run executes fn on size ranks concurrently and waits for all of them.
// It returns the first error any rank produced. After a failure the other
// ranks' communication calls return ErrAborted, so the world always
// drains.
func Run(size int, fn func(c *Comm) error) error {
	if size < 1 {
		return fmt.Errorf("mpi: invalid world size %d", size)
	}
	w := newChanWorld(size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(rank int) {
			defer wg.Done()
			errs[rank] = RunTransport(&chanTransport{rank: rank, w: w}, fn)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrAborted) {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunRoot runs fn on size ranks through launch (nil: Run) and returns
// the value rank 0's fn returned, with the first error any rank
// produced. Under a distributed launcher only rank 0's process gets the
// value; the others get T's zero value.
func RunRoot[T any](launch Launcher, size int, fn func(*Comm) (T, error)) (T, error) {
	if launch == nil {
		launch = Run
	}
	var root T
	err := launch(size, func(c *Comm) error {
		v, err := fn(c)
		if c.Rank() == 0 {
			root = v
		}
		return err
	})
	return root, err
}

// RunTransport executes fn as the transport's local rank. A returned
// error or panic aborts the world, so ranks blocked elsewhere —
// including on other hosts — drain with ErrAborted instead of
// deadlocking. It does not close the transport; the caller owns its
// lifetime and may launch further world runs over it (each rank must
// launch the same sequence).
func RunTransport(t Transport, fn func(c *Comm) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("mpi: rank %d panicked: %v", t.Rank(), p)
			t.Abort()
		}
	}()
	if err = fn(NewComm(t)); err != nil {
		t.Abort()
	}
	return err
}
