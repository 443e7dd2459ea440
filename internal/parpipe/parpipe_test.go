package parpipe

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

type job struct {
	in  int
	out int
}

func TestOrderPreserved(t *testing.T) {
	p := New(4, 8, func(j *job) {
		// Stagger completion so later jobs routinely finish first.
		time.Sleep(time.Duration(j.in%3) * time.Millisecond)
		j.out = j.in * j.in
	})
	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			p.Submit(&job{in: i})
		}
		p.Close()
	}()
	i := 0
	for j := range p.Out() {
		if j.in != i {
			t.Fatalf("job %d delivered at position %d", j.in, i)
		}
		if j.out != i*i {
			t.Fatalf("job %d not processed: out=%d", i, j.out)
		}
		i++
	}
	if i != n {
		t.Fatalf("delivered %d jobs, want %d", i, n)
	}
}

func TestSingleWorkerDegenerate(t *testing.T) {
	p := New(0, 0, func(j *job) { j.out = j.in + 1 })
	go func() {
		for i := 0; i < 50; i++ {
			p.Submit(&job{in: i})
		}
		p.Close()
	}()
	i := 0
	for j := range p.Out() {
		if j.out != i+1 {
			t.Fatalf("job %d: out=%d", i, j.out)
		}
		i++
	}
	if i != 50 {
		t.Fatalf("delivered %d jobs, want 50", i)
	}
}

func TestEmptyClose(t *testing.T) {
	p := New(2, 4, func(j *job) {})
	p.Close()
	if _, ok := <-p.Out(); ok {
		t.Fatal("Out delivered a job that was never submitted")
	}
}

func TestBoundedInFlight(t *testing.T) {
	var inFlight, maxSeen atomic.Int64
	const depth = 4
	p := New(2, depth, func(j *job) {
		cur := inFlight.Add(1)
		for {
			prev := maxSeen.Load()
			if cur <= prev || maxSeen.CompareAndSwap(prev, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range p.Out() {
		}
	}()
	for i := 0; i < 64; i++ {
		p.Submit(&job{in: i})
	}
	p.Close()
	<-done
	// Processing concurrency can never exceed the worker count.
	if maxSeen.Load() > 2 {
		t.Fatalf("observed %d concurrent jobs with 2 workers", maxSeen.Load())
	}
}

func TestGoroutinesExitAfterDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 20; trial++ {
		p := New(3, 6, func(j *job) { j.out = j.in })
		go func() {
			for i := 0; i < 10; i++ {
				p.Submit(&job{in: i})
			}
			p.Close()
		}()
		for range p.Out() {
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after drain", before, g)
	}
}

// A drained pipe must let go of its worker func: the ticket sync.Pool
// keeps the Pipe reachable for two more GC cycles, and whatever fn
// captured (a conversion's 1 MiB write buffer, once) must not stay
// resident with it. One GC after Out closes, the capture is gone.
func TestDrainedPipeReleasesFn(t *testing.T) {
	pool := NewPool(2, 2, 4)
	defer pool.Close()
	builders := map[string]func(fn func(*job)) *Pipe[*job]{
		"New":       func(fn func(*job)) *Pipe[*job] { return New(2, 4, fn) },
		"NewOnPool": func(fn func(*job)) *Pipe[*job] { return NewOnPool(pool, 4, fn, nil, "") },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			freed := make(chan struct{})
			p := drainWithCapture(build, freed)
			runtime.GC()
			select {
			case <-freed:
			case <-time.After(5 * time.Second):
				t.Fatal("value captured by fn still reachable one GC after Out closed")
			}
			runtime.KeepAlive(p) // the pipe outliving its fn is the point
		})
	}
}

// drainWithCapture runs a pipe whose fn captures a finalizable value to
// completion; only the pipe survives the call.
//
//go:noinline
func drainWithCapture(build func(func(*job)) *Pipe[*job], freed chan struct{}) *Pipe[*job] {
	captured := new([1 << 16]byte)
	runtime.SetFinalizer(captured, func(*[1 << 16]byte) { close(freed) })
	p := build(func(j *job) { j.out = j.in + int(captured[0]) })
	go func() {
		for i := 0; i < 10; i++ {
			p.Submit(&job{in: i})
		}
		p.Close()
	}()
	for range p.Out() {
	}
	return p
}
