// Job lifecycle. A job moves queued → running → done/failed/canceled;
// DELETE cancels it in any non-terminal state. The state word is
// guarded by one mutex per job, and every transition records its wall
// time so the status endpoint can report queue and service latency.

package daemon

import (
	"context"
	"fmt"
	"sync"
	"time"

	"parseq/internal/engine"
)

// State is one station of the job state machine.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one admitted unit of work.
type Job struct {
	ID   string
	Spec JobSpec

	dir        string // per-job spool directory (input + outputs)
	inputPath  string // resolved input: spooled upload or Spec.InputPath
	inputBytes int64

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     State
	errMsg    string
	res       engine.Result
	submitted time.Time
	started   time.Time
	finished  time.Time
}

func newJob(id string, spec JobSpec, dir, inputPath string, inputBytes int64) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	return &Job{
		ID: id, Spec: spec, dir: dir, inputPath: inputPath, inputBytes: inputBytes,
		ctx: ctx, cancel: cancel, state: StateQueued, submitted: time.Now(),
	}
}

// toRunning attempts the queued → running transition; it fails when the
// job was canceled while waiting in the queue.
func (j *Job) toRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish records the terminal state of a run: done on nil error,
// canceled when the job's context was canceled mid-run (the engine's
// result is discarded), failed otherwise.
func (j *Job) finish(res engine.Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return
	}
	j.finished = time.Now()
	switch {
	case j.ctx.Err() != nil:
		j.state = StateCanceled
		j.errMsg = "canceled while running; result discarded"
	case err != nil:
		j.state = StateFailed
		j.errMsg = err.Error()
	default:
		j.state = StateDone
		j.res = res
	}
}

// requestCancel cancels the job's context and, for a job still in the
// queue, moves it straight to canceled (the dispatcher skips it). A
// running job keeps executing — the engines have no preemption points —
// and lands in canceled when it returns. Terminal jobs are unchanged.
func (j *Job) requestCancel() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel()
	if j.state == StateQueued {
		j.state = StateCanceled
		j.finished = time.Now()
		j.errMsg = "canceled before start"
	}
	return j.state
}

// Status is the wire representation of a job, the GET /v1/jobs/{id}
// payload.
type Status struct {
	ID         string     `json:"id"`
	State      State      `json:"state"`
	Spec       JobSpec    `json:"spec"`
	Error      string     `json:"error,omitempty"`
	Files      []FileInfo `json:"files,omitempty"`
	Records    int64      `json:"records,omitempty"`
	BytesOut   int64      `json:"bytes_out,omitempty"`
	InputBytes int64      `json:"input_bytes,omitempty"`
	QueuedMS   int64      `json:"queued_ms"`
	RunMS      int64      `json:"run_ms,omitempty"`
}

// status snapshots the job under its lock.
func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.ID, State: j.state, Spec: j.Spec, Error: j.errMsg,
		Files:   append([]FileInfo(nil), j.res.Files...),
		Records: j.res.Records, BytesOut: j.res.BytesOut, InputBytes: j.inputBytes,
	}
	switch {
	case j.state == StateQueued:
		st.QueuedMS = time.Since(j.submitted).Milliseconds()
	case !j.started.IsZero():
		st.QueuedMS = j.started.Sub(j.submitted).Milliseconds()
		if j.state == StateRunning {
			st.RunMS = time.Since(j.started).Milliseconds()
		} else {
			st.RunMS = j.finished.Sub(j.started).Milliseconds()
		}
	default: // canceled straight out of the queue
		st.QueuedMS = j.finished.Sub(j.submitted).Milliseconds()
	}
	return st
}

// currentState reads the state under the lock.
func (j *Job) currentState() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// resultFiles returns the output file list of a done job, or an error
// describing why the result is not servable.
func (j *Job) resultFiles() ([]FileInfo, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, fmt.Errorf("job %s is %s, not done", j.ID, j.state)
	}
	return append([]FileInfo(nil), j.res.Files...), nil
}
