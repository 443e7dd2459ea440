// The worker fleet: distributed jobs fan out over a pre-registered
// mpinet world instead of in-process goroutine ranks. The daemon is
// rank 0; each `seqconvd -worker` process is one other rank. Because
// the mpinet transport demands every process launch the same collective
// sequence, the protocol is rigidly lockstep per job:
//
//	control round:  Bcast(0, JSON fleetJob descriptor)
//	engine round:   engine.Run — the shared routing table, so the
//	                collective sequence matches by construction
//	settle round:   Barrier — worker rank output files are durable
//	                before the daemon marks the job done
//
// Drain broadcasts a shutdown descriptor in place of a job. Workers
// share the daemon's filesystem (inputs and the spool are plain paths
// in the descriptor); the fleet is a same-host or shared-volume
// deployment, one world for the daemon's lifetime. An engine error on
// any rank aborts the world — the fleet is then down and later
// distributed jobs are refused rather than wedged.

package daemon

import (
	"encoding/json"
	"fmt"
	"sync"

	"parseq/internal/engine"
	"parseq/internal/mpi"
	"parseq/internal/mpinet"
)

// fleetJob is the control-round descriptor rank 0 broadcasts: the job
// spec plus the daemon-side input and output paths.
type fleetJob struct {
	Op    string  `json:"op,omitempty"` // opShutdown, or "" = run Spec
	Spec  JobSpec `json:"spec"`
	Input string  `json:"input"`
	Dir   string  `json:"dir"`
}

// Fleet is the daemon-side handle on a worker world. Execute serializes
// jobs — the world is one lockstep channel, not a pool.
type Fleet struct {
	world *mpinet.World

	mu   sync.Mutex
	down bool
}

// NewFleet wraps an already-formed world whose local rank is 0.
func NewFleet(w *mpinet.World) (*Fleet, error) {
	if w.Rank() != 0 {
		return nil, fmt.Errorf("daemon: fleet root must be rank 0, got %d", w.Rank())
	}
	if w.Size() < 2 {
		return nil, fmt.Errorf("daemon: a fleet needs at least 2 ranks, got %d", w.Size())
	}
	return &Fleet{world: w}, nil
}

// DialFleet forms the daemon's world as rank 0 of `ranks` processes
// rendezvousing at coord. It blocks until every worker has joined.
// WaitTimeout is disabled: a resident fleet idles between jobs
// indefinitely by design.
func DialFleet(coord string, ranks int) (*Fleet, error) {
	w, err := mpinet.Connect(mpinet.Config{
		Rank: 0, World: ranks, Coord: coord, WaitTimeout: -1,
	})
	if err != nil {
		return nil, err
	}
	return NewFleet(w)
}

// Size returns the fleet's world size (daemon rank included).
func (f *Fleet) Size() int { return f.world.Size() }

// Execute runs one distributed job across the fleet — env names the
// job's input and directory — and returns rank 0's view of the result
// with the full output file list.
func (f *Fleet) Execute(spec *JobSpec, env engine.Env) (engine.Result, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var none engine.Result
	if f.down || f.world.Err() != nil {
		f.down = true
		return none, fmt.Errorf("daemon: worker fleet is down: %v", f.world.Err())
	}
	ranks := f.world.Size()
	if spec.Ranks != ranks {
		return none, fmt.Errorf("daemon: job wants %d ranks, fleet has %d", spec.Ranks, ranks)
	}
	if err := distributable(spec); err != nil {
		return none, err
	}
	desc, err := json.Marshal(fleetJob{Spec: *spec, Input: env.Input, Dir: env.OutDir})
	if err != nil {
		return none, err
	}
	env.Launch = f.world.Launcher()
	if err := env.Launch(ranks, func(c *mpi.Comm) error {
		_, err := c.Bcast(0, desc)
		return err
	}); err != nil {
		f.down = true
		return none, fmt.Errorf("daemon: fleet control round: %w", err)
	}
	res, err := engine.Run(*spec, env)
	if err != nil {
		// The failure may have struck outside a collective (an open, a
		// stat); abort explicitly so workers drain instead of wedging.
		f.world.Abort()
		f.down = true
		return none, err
	}
	if err := env.Launch(ranks, func(c *mpi.Comm) error { return c.Barrier() }); err != nil {
		f.down = true
		return none, fmt.Errorf("daemon: fleet settle round: %w", err)
	}
	if spec.Op == OpConvert {
		// Worker ranks' files are durable only now.
		if res.Files, res.BytesOut, err = engine.ConvertOutputs(spec, env); err != nil {
			return none, err
		}
	}
	return res, nil
}

// Shutdown broadcasts the shutdown sentinel (workers exit their serve
// loop) and closes the world. Safe to call once after Drain.
func (f *Fleet) Shutdown() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.down && f.world.Err() == nil {
		desc, _ := json.Marshal(fleetJob{Op: opShutdown})
		_ = f.world.Launcher()(f.world.Size(), func(c *mpi.Comm) error {
			_, err := c.Bcast(0, desc)
			return err
		})
	}
	f.down = true
	_ = f.world.Close()
}

// WorkerConfig shapes one fleet worker process.
type WorkerConfig struct {
	// Rank is this worker's rank in [1, Ranks); Ranks the world size.
	Rank, Ranks int
	// Coord is the rendezvous address the daemon listens on as rank 0.
	Coord string
	// Listen is the worker's mesh bind address (default ":0").
	Listen string
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// RunWorker joins the fleet and serves jobs until the daemon broadcasts
// shutdown (returns nil) or the world dies (returns the error).
func RunWorker(cfg WorkerConfig) error {
	if cfg.Rank < 1 {
		return fmt.Errorf("daemon: worker rank must be ≥ 1, got %d", cfg.Rank)
	}
	w, err := mpinet.Connect(mpinet.Config{
		Rank: cfg.Rank, World: cfg.Ranks, Coord: cfg.Coord,
		Listen: cfg.Listen, WaitTimeout: -1,
	})
	if err != nil {
		return err
	}
	defer w.Close()
	return ServeWorker(w, cfg.Logf)
}

// ServeWorker runs the worker side of the fleet protocol over an
// already-formed world — the seam in-process tests use to host a worker
// rank on a goroutine.
func ServeWorker(w *mpinet.World, logf func(format string, args ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	launch := w.Launcher()
	for {
		var desc []byte
		if err := launch(w.Size(), func(c *mpi.Comm) error {
			d, err := c.Bcast(0, nil)
			desc = d
			return err
		}); err != nil {
			return fmt.Errorf("daemon: worker %d control round: %w", w.Rank(), err)
		}
		var fj fleetJob
		if err := json.Unmarshal(desc, &fj); err != nil {
			w.Abort()
			return fmt.Errorf("daemon: worker %d: bad control frame: %w", w.Rank(), err)
		}
		if fj.Op == opShutdown {
			logf("worker %d: shutdown", w.Rank())
			return nil
		}
		logf("worker %d: op %s input %s", w.Rank(), fj.Spec.Op, fj.Input)
		env := engine.Env{Input: fj.Input, OutDir: fj.Dir, Launch: launch, Rank: w.Rank()}
		if _, err := engine.Run(fj.Spec, env); err != nil {
			w.Abort() // see Fleet.Execute: unblock peers on non-collective failures
			return fmt.Errorf("daemon: worker %d: %w", w.Rank(), err)
		}
		if err := launch(w.Size(), func(c *mpi.Comm) error { return c.Barrier() }); err != nil {
			return fmt.Errorf("daemon: worker %d settle round: %w", w.Rank(), err)
		}
	}
}
