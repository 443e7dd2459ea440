// The daemon core: a bounded FIFO job queue drained by a fixed pool of
// runner goroutines, admission accounting, and graceful drain. Jobs
// share the process-wide bgzf.SharedPool for codec work, so concurrent
// tenants contend for one throughput-sized deflate pool instead of
// multiplying goroutines — and the pool's EWMA gauge is exactly the
// service-rate signal admission control reads back.

package daemon

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"parseq/internal/bgzf"
	"parseq/internal/engine"
	"parseq/internal/obs"
)

// Options configures a Daemon.
type Options struct {
	// Registry receives the daemon.* metrics; nil falls back to
	// obs.Default() (a nil registry's handles are no-ops).
	Registry *obs.Registry
	// Policy is the admission-control policy; zero values pick the
	// package defaults.
	Policy Policy
	// SpoolDir receives one subdirectory per job (uploaded input plus
	// output files). "" creates a temporary directory removed on Close.
	SpoolDir string
	// Concurrency is the number of jobs executed in parallel. ≤ 0
	// picks 2: enough to overlap one job's IO with another's codec
	// work without thrashing the shared deflate pool.
	Concurrency int
	// Fleet is the pre-registered worker world for distributed jobs;
	// nil limits jobs to in-process ranks.
	Fleet *Fleet
}

// Daemon is the resident job service. Create with New, mount with
// Install, stop with Drain (graceful) or Close.
type Daemon struct {
	reg      *obs.Registry
	policy   Policy
	spool    string
	ownSpool bool
	fleet    *Fleet
	conc     int

	queue chan *Job

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	seq      int
	intakeOK bool // false once draining: enqueue would race the close

	inflight atomic.Int64 // spooled input bytes of queued+running jobs
	draining atomic.Bool

	runners  sync.WaitGroup
	gate     chan struct{} // test hook: runners block here before executing
	testHook func(*Job)    // test hook: runs inside execute's recover scope

	closeOnce sync.Once
}

// New creates the daemon and starts its runner pool.
func New(opts Options) (*Daemon, error) {
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default()
	}
	spool, own := opts.SpoolDir, false
	if spool == "" {
		dir, err := os.MkdirTemp("", "seqconvd-spool-*")
		if err != nil {
			return nil, fmt.Errorf("daemon: creating spool: %w", err)
		}
		spool, own = dir, true
	} else if err := os.MkdirAll(spool, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: spool %s: %w", spool, err)
	}
	conc := opts.Concurrency
	if conc <= 0 {
		conc = 2
	}
	policy := opts.Policy.withDefaults()
	d := &Daemon{
		reg: reg, policy: policy, spool: spool, ownSpool: own,
		fleet: opts.Fleet, conc: conc,
		queue: make(chan *Job, policy.MaxQueue),
		jobs:  make(map[string]*Job), intakeOK: true,
	}
	d.runners.Add(conc)
	for i := 0; i < conc; i++ {
		go d.runner()
	}
	return d, nil
}

// Spool returns the daemon's spool directory.
func (d *Daemon) Spool() string { return d.spool }

// load samples the admission inputs: queue depth, in-flight bytes, and
// the shared deflate pool's measured per-worker throughput.
func (d *Daemon) load() Load {
	return Load{
		QueueDepth:    len(d.queue),
		InFlightBytes: d.inflight.Load(),
		ThroughputBps: d.reg.Gauge("bgzf.shared_pool.throughput").Value(),
		Workers:       bgzf.SharedPool().Workers(),
	}
}

// admit runs the admission decision for an incoming job of `incoming`
// input bytes, counting rejections.
func (d *Daemon) admit(incoming int64) Decision {
	dec := d.policy.Decide(d.load(), incoming)
	if !dec.Admit {
		d.reg.Counter("daemon.rejected").Add(1)
	}
	return dec
}

// register creates the job record and its spool directory.
func (d *Daemon) register(spec JobSpec) (*Job, error) {
	d.mu.Lock()
	d.seq++
	id := fmt.Sprintf("j%06d", d.seq)
	d.mu.Unlock()
	dir := filepath.Join(d.spool, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: job dir: %w", err)
	}
	inputPath := spec.InputPath
	if inputPath == "" {
		inputPath = filepath.Join(dir, spec.InputBase())
	}
	return newJob(id, spec, dir, inputPath, 0), nil
}

// enqueue admits a fully spooled job into the bounded queue. The mutex
// makes the intake check and the channel send atomic with respect to
// Drain's close, and the non-blocking send is the backstop bound: the
// queue channel's capacity is the policy's MaxQueue.
func (d *Daemon) enqueue(job *Job) *Error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.intakeOK {
		return &Error{Code: CodeDraining, Message: "daemon is draining"}
	}
	select {
	case d.queue <- job:
	default:
		d.reg.Counter("daemon.rejected").Add(1)
		return &Error{Code: CodeOverloaded, Message: "queue full", RetryAfter: 1}
	}
	d.jobs[job.ID] = job
	d.order = append(d.order, job.ID)
	d.inflight.Add(job.inputBytes)
	d.reg.Counter("daemon.jobs").Add(1)
	d.reg.Gauge("daemon.queue_depth").Set(int64(len(d.queue)))
	return nil
}

// lookup finds a job by ID.
func (d *Daemon) lookup(id string) (*Job, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	return j, ok
}

// statuses snapshots every job in submission order.
func (d *Daemon) statuses() []Status {
	d.mu.Lock()
	ids := append([]string(nil), d.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, d.jobs[id])
	}
	d.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// runner drains the queue. Each job runs under panic isolation; a
// panicking engine fails its job, never the daemon.
func (d *Daemon) runner() {
	defer d.runners.Done()
	for job := range d.queue {
		d.reg.Gauge("daemon.queue_depth").Set(int64(len(d.queue)))
		if !job.toRunning() { // canceled while queued
			d.settle(job)
			continue
		}
		if d.gate != nil {
			<-d.gate
		}
		d.reg.Gauge("daemon.running").Add(1)
		start := time.Now()
		res, err := d.execute(job)
		job.finish(res, err)
		d.reg.Gauge("daemon.running").Add(-1)
		d.reg.Histogram("daemon.job_ns").Observe(time.Since(start).Nanoseconds())
		d.settle(job)
	}
}

// settle releases a terminal job's admission accounting.
func (d *Daemon) settle(job *Job) {
	d.inflight.Add(-job.inputBytes)
}

// execute dispatches one job to the engine, isolating panics. A job
// whose rank count matches the registered fleet's world size fans out
// across the worker processes; everything else runs in-process.
func (d *Daemon) execute(job *Job) (res engine.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("daemon: job %s panicked: %v", job.ID, r)
		}
	}()
	if err := job.ctx.Err(); err != nil {
		return res, err
	}
	if d.testHook != nil {
		d.testHook(job)
	}
	env := engine.Env{Input: job.inputPath, OutDir: job.dir}
	if d.fleet != nil && job.Spec.Ranks > 1 && job.Spec.Ranks == d.fleet.Size() {
		return d.fleet.Execute(&job.Spec, env)
	}
	return engine.Run(job.Spec, env)
}

// Draining reports whether the daemon has stopped admitting.
func (d *Daemon) Draining() bool { return d.draining.Load() }

// Drain gracefully stops the daemon: admission closes immediately
// (submissions get 503 + draining), queued and running jobs are given
// `timeout` to finish, stragglers are canceled, and the worker fleet —
// if any — is shut down. It returns the number of jobs that completed
// during the drain and an error if the timeout expired first.
func (d *Daemon) Drain(timeout time.Duration) (int, error) {
	d.draining.Store(true)
	d.mu.Lock()
	if d.intakeOK {
		d.intakeOK = false
		close(d.queue)
	}
	d.mu.Unlock()

	done := make(chan struct{})
	go func() {
		d.runners.Wait()
		close(done)
	}()
	var timedOut bool
	if timeout <= 0 {
		<-done
	} else {
		select {
		case <-done:
		case <-time.After(timeout):
			timedOut = true
			// Cancel whatever is left: queued jobs flip to canceled and
			// the runners skip them; running engines have no preemption
			// points, so their results are discarded on return.
			d.mu.Lock()
			for _, j := range d.jobs {
				if !j.currentState().Terminal() {
					j.requestCancel()
				}
			}
			d.mu.Unlock()
		}
	}
	if d.fleet != nil {
		d.fleet.Shutdown()
	}
	finished := 0
	for _, st := range d.statuses() {
		if st.State == StateDone || st.State == StateFailed {
			finished++
		}
	}
	if timedOut {
		return finished, fmt.Errorf("daemon: drain timed out after %v", timeout)
	}
	return finished, nil
}

// Close tears the daemon down without waiting for in-flight work
// beyond what has already started: intake closes, every non-terminal
// job is canceled, the runners drain, and an owned spool directory is
// removed. Drain first for a graceful stop.
func (d *Daemon) Close() error {
	var err error
	d.closeOnce.Do(func() {
		d.draining.Store(true)
		d.mu.Lock()
		if d.intakeOK {
			d.intakeOK = false
			close(d.queue)
		}
		for _, j := range d.jobs {
			j.requestCancel()
		}
		d.mu.Unlock()
		d.runners.Wait()
		if d.fleet != nil {
			d.fleet.Shutdown()
		}
		if d.ownSpool {
			err = os.RemoveAll(d.spool)
		}
	})
	return err
}
