// Package parpipe provides a bounded, order-preserving parallel
// pipeline: jobs fan out to a fixed pool of workers and are delivered
// back in submission order. It is the concurrency skeleton shared by
// the parallel BGZF codec and the BAMZ block compressor — both exploit
// the same structure, independent blocks that must be reassembled in
// stream order.
//
// The pipeline is deliberately minimal: it moves jobs, it does not
// interpret them. Jobs carry their own payloads, results and errors;
// the consumer sees jobs exactly in the order they were submitted, so
// "first error in stream order" falls out of the delivery order for
// free.
//
// A pipeline built with NewObserved additionally reports itself to an
// obs.Registry — queue depth, per-worker busy/idle time, items
// processed, and (when tracing is on) one trace span per job on the
// worker that ran it. A pipeline built with New is untouched: the
// instrumentation fields stay nil and the hot path pays nothing.
package parpipe

import (
	"sync"
	"time"

	"parseq/internal/obs"
)

// ticket pairs a job with its completion signal. The done channel is
// buffered so a worker never blocks handing off a finished job.
type ticket[J any] struct {
	job  J
	done chan struct{}
}

// Pipe fans submitted jobs out to workers and yields them, processed,
// in submission order on Out. Submit blocks while the pipeline is full,
// bounding memory to roughly depth in-flight jobs.
type Pipe[J any] struct {
	fn      func(J)
	work    chan *ticket[J] // nil on pool-backed pipes
	pool    *Pool           // nil on pipes that own their workers
	order   chan *ticket[J]
	out     chan J
	tickets sync.Pool
	wg      sync.WaitGroup

	// Telemetry (nil/zero on unobserved pipelines).
	reg    *obs.Registry
	name   string
	pid    int
	items  *obs.Counter
	busyNS *obs.Counter
	idleNS *obs.Counter
	queue  *obs.Gauge
}

// New starts a pipeline of `workers` goroutines applying fn to each
// submitted job. depth bounds the number of in-flight jobs; it is
// raised to workers when smaller so the pool can actually fill.
func New[J any](workers, depth int, fn func(J)) *Pipe[J] {
	return NewObserved(workers, depth, fn, nil, "")
}

// NewObserved is New with telemetry: the pipeline registers
// parpipe.<name>.{items,busy_ns,idle_ns} counters and a
// parpipe.<name>.queue_depth gauge on reg, and — when reg has tracing
// enabled — emits one span per job under its own trace process, one
// trace thread per worker. A nil reg yields an uninstrumented pipeline
// identical to New's.
func NewObserved[J any](workers, depth int, fn func(J), reg *obs.Registry, name string) *Pipe[J] {
	if workers < 1 {
		workers = 1
	}
	if depth < workers {
		depth = workers
	}
	p := &Pipe[J]{
		fn:    fn,
		work:  make(chan *ticket[J], depth),
		order: make(chan *ticket[J], depth),
		out:   make(chan J, depth),
	}
	p.initObs(reg, name)
	p.tickets.New = func() any { return &ticket[J]{done: make(chan struct{}, 1)} }
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker(i)
	}
	go p.drainLoop()
	return p
}

// NewOnPool builds a pipeline whose jobs run on a shared Pool instead
// of dedicated workers: Submit hands each job to the pool, and delivery
// on Out is still strictly submission order. depth bounds the in-flight
// jobs of this pipe alone — the pool's own queue bounds total demand
// across every attached pipe. Telemetry registers under the same
// parpipe.<name>.* names as NewObserved (the idle counter stays zero:
// pool workers' idle time belongs to the pool, not to any one pipe).
// Close detaches the pipe; the pool keeps running for the next stream.
func NewOnPool[J any](pool *Pool, depth int, fn func(J), reg *obs.Registry, name string) *Pipe[J] {
	if depth < 1 {
		depth = 1
	}
	p := &Pipe[J]{
		fn:    fn,
		pool:  pool,
		order: make(chan *ticket[J], depth),
		out:   make(chan J, depth),
	}
	p.initObs(reg, name)
	p.tickets.New = func() any { return &ticket[J]{done: make(chan struct{}, 1)} }
	go p.drainLoop()
	return p
}

// initObs registers the pipe's telemetry handles; a nil reg leaves the
// pipe uninstrumented.
func (p *Pipe[J]) initObs(reg *obs.Registry, name string) {
	if reg == nil {
		return
	}
	p.reg = reg
	p.name = name
	prefix := "parpipe." + name
	p.items = reg.Counter(prefix + ".items")
	p.busyNS = reg.Counter(prefix + ".busy_ns")
	p.idleNS = reg.Counter(prefix + ".idle_ns")
	p.queue = reg.Gauge(prefix + ".queue_depth")
	if reg.TracingEnabled() && p.pool == nil {
		p.pid = reg.AllocPID("pipe:" + name)
	}
}

// drainLoop delivers finished jobs in submission order, then closes Out
// once the input is complete and every worker has retired.
func (p *Pipe[J]) drainLoop() {
	for t := range p.order {
		<-t.done
		j := t.job
		var zero J
		t.job = zero
		p.tickets.Put(t)
		p.out <- j
	}
	p.wg.Wait()
	// Every job has signalled done and every worker has returned, so
	// nothing reads fn again. Drop it: the ticket sync.Pool keeps the
	// Pipe itself reachable for two more GC cycles, and whatever fn
	// captured (a conversion's sink and its write buffer, say) must not
	// ride along.
	p.fn = nil
	close(p.out)
}

// run executes one ticket on a pool worker, with the same busy/items
// accounting as a dedicated worker (idle time is the pool's, not the
// pipe's, so it is not attributed here).
func (p *Pipe[J]) run(t *ticket[J]) {
	if p.reg == nil {
		p.fn(t.job)
		t.done <- struct{}{}
		return
	}
	start := time.Now()
	p.fn(t.job)
	p.busyNS.Add(time.Since(start).Nanoseconds())
	p.items.Add(1)
	t.done <- struct{}{}
}

// worker drains the work channel. On observed pipelines it splits its
// lifetime into idle (waiting for a job) and busy (running fn) time —
// the two counters behind the exported busy-fraction — and emits one
// trace span per job.
func (p *Pipe[J]) worker(id int) {
	defer p.wg.Done()
	if p.reg == nil {
		for t := range p.work {
			p.fn(t.job)
			t.done <- struct{}{}
		}
		return
	}
	last := time.Now()
	for t := range p.work {
		start := time.Now()
		p.idleNS.Add(start.Sub(last).Nanoseconds())
		var sp obs.Span
		if p.pid != 0 {
			sp = p.reg.StartWorkerSpan(p.pid, id, p.name)
		}
		p.fn(t.job)
		sp.End()
		last = time.Now()
		p.busyNS.Add(last.Sub(start).Nanoseconds())
		p.items.Add(1)
		t.done <- struct{}{}
	}
}

// Submit enqueues one job. It blocks while the pipeline holds depth
// unfinished jobs, and must not be called after Close.
func (p *Pipe[J]) Submit(j J) {
	t := p.tickets.Get().(*ticket[J])
	t.job = j
	p.order <- t
	if p.pool != nil {
		p.pool.Submit(func() { p.run(t) })
		p.queue.Set(int64(len(p.order)))
		return
	}
	p.work <- t
	p.queue.Set(int64(len(p.work)))
}

// Out delivers processed jobs in submission order. The channel is
// closed after Close once every submitted job has been delivered, so a
// plain range drains the pipeline.
func (p *Pipe[J]) Out() <-chan J { return p.out }

// Close marks the input complete. Out keeps delivering the jobs already
// submitted, then closes. On a pool-backed pipe this detaches the pipe
// without touching the shared pool.
func (p *Pipe[J]) Close() {
	if p.work != nil {
		close(p.work)
	}
	close(p.order)
}
