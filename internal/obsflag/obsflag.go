// Package obsflag wires the obs telemetry layer into the command-line
// tools: every CLI registers the same -metrics/-trace/-cpuprofile/
// -memprofile/-metrics-addr/-heartbeat/-v flags, starts one Session
// around its work, and closes it to write the requested outputs.
// Centralising the plumbing keeps the four binaries' telemetry surfaces
// identical. With -metrics-addr the session also runs the live
// observability plane: an HTTP endpoint serving /metrics, /progress,
// /trace and /debug/pprof while the run is in flight, a runtime sampler
// feeding the go.* gauges, and (for distributed runs, via
// mpiflag.Flags.Start) the cross-rank telemetry gather.
package obsflag

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"parseq/internal/obs"
)

// Flags holds the parsed telemetry flag values.
type Flags struct {
	Metrics     string        // -metrics: metrics snapshot JSON path
	Trace       string        // -trace: Chrome trace_event JSON path
	CPUProfile  string        // -cpuprofile: pprof CPU profile path
	MemProfile  string        // -memprofile: pprof heap profile path
	MetricsAddr string        // -metrics-addr: live observability endpoint
	Heartbeat   time.Duration // -heartbeat: sampler + telemetry-gather period
	Verbose     bool          // -v: per-phase/per-rank summary on stderr
}

// Register installs the telemetry flags on fs (flag.CommandLine when
// nil) and returns the value holder to pass to Start after parsing.
func Register(fs *flag.FlagSet) *Flags {
	if fs == nil {
		fs = flag.CommandLine
	}
	f := &Flags{}
	fs.StringVar(&f.Metrics, "metrics", "", "write a metrics snapshot (JSON) to this file at exit")
	fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace_event JSON trace to this file at exit (open in chrome://tracing or Perfetto)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to this file at exit")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve live /metrics, /progress, /trace and /debug/pprof on this address (host:port, :0 picks a port) while running")
	fs.DurationVar(&f.Heartbeat, "heartbeat", time.Second, "runtime sampling and cross-rank telemetry period")
	fs.BoolVar(&f.Verbose, "v", false, "print a per-phase/per-rank telemetry summary to stderr at exit")
	return f
}

// Session is one CLI run's active telemetry. Close writes every
// requested output; both methods tolerate a fully disabled Flags, so
// callers can run them unconditionally. Close is idempotent — the
// SIGINT/SIGTERM handler installed by Start races it by design, so a
// profile or trace requested before an interrupt still reaches disk.
type Session struct {
	flags       *Flags
	name        string // the command, for Open's notice and Finish's report
	reg         *obs.Registry
	view        *obs.WorldView
	server      *obs.Server
	stopCPU     func() error
	stopSampler func()
	stopSignals func()

	hookMu       sync.Mutex
	shutdownHook func(os.Signal)

	closeOnce sync.Once
	closeErr  error
}

// Start enables whatever the flags ask for: a process-wide registry
// (with tracing when -trace or -metrics-addr is set) that the
// instrumented libraries pick up through obs.Default, CPU profiling,
// and — under -metrics-addr — the live HTTP endpoint plus the runtime
// sampler. With no telemetry flags set it is a no-op and the libraries
// stay on their free path.
func (f *Flags) Start() (*Session, error) {
	s := &Session{flags: f}
	if f.Metrics != "" || f.Trace != "" || f.Verbose || f.MetricsAddr != "" {
		s.reg = obs.New()
		if f.Trace != "" || f.MetricsAddr != "" {
			// The live /trace endpoint (and the merged multi-rank trace)
			// needs spans regardless of -trace.
			s.reg.EnableTracing(0)
		}
		obs.SetDefault(s.reg)
	}
	if f.CPUProfile != "" {
		stop, err := obs.StartCPUProfile(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		s.stopCPU = stop
	}
	if f.MetricsAddr != "" {
		// The world view exists on every rank; it only fills on the rank
		// the telemetry gather ships to (rank 0), and stays empty — at no
		// cost — elsewhere.
		s.view = obs.NewWorldView(s.reg, obs.WorldViewOptions{})
		srv, err := obs.StartServer(f.MetricsAddr, s.reg, s.view)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.server = srv
		s.stopSampler = obs.StartRuntimeSampler(s.reg, f.Heartbeat)
	}
	if f.CPUProfile != "" || f.MemProfile != "" || f.Trace != "" || f.Metrics != "" {
		s.handleSignals()
	}
	return s, nil
}

// Open is Start for a command's main: it also announces the live
// endpoint on stderr under the command's name. Pair it with a deferred
// Finish.
func (f *Flags) Open(name string) (*Session, error) {
	s, err := f.Start()
	if err != nil {
		return nil, err
	}
	s.name = name
	if addr := s.ServerAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "%s: serving metrics on http://%s/metrics\n", name, addr)
	}
	return s, nil
}

// Finish closes the session and reports a failed output write on
// stderr — the deferred tail of a main, which has no one to return the
// error to.
func (s *Session) Finish() {
	if err := s.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", s.name, err)
	}
}

// Registry returns the session's registry, or nil when telemetry is
// disabled.
func (s *Session) Registry() *obs.Registry { return s.reg }

// View returns the session's cross-rank world view (non-nil only under
// -metrics-addr). Pass it to the telemetry gather on rank 0.
func (s *Session) View() *obs.WorldView { return s.view }

// ServerAddr returns the live endpoint's resolved listen address, or ""
// when -metrics-addr is off.
func (s *Session) ServerAddr() string { return s.server.Addr() }

// OnShutdown registers a hook the SIGINT/SIGTERM handler runs before
// flushing telemetry outputs and exiting — the seam seqconvd uses to
// drain its job queue gracefully: stop admitting, finish in-flight work
// within its timeout, then let the session flush profiles and metrics.
// It installs the signal handler when no profiling flag already did.
// The last registered hook wins.
func (s *Session) OnShutdown(hook func(os.Signal)) {
	s.hookMu.Lock()
	s.shutdownHook = hook
	s.hookMu.Unlock()
	if s.stopSignals == nil {
		s.handleSignals()
	}
}

// handleSignals flushes the requested outputs on SIGINT/SIGTERM before
// dying with the conventional 128+signal status. Without it an
// interrupted run leaves a truncated CPU profile and no trace — the
// moments one wants a profile most are the runs one kills.
func (s *Session) handleSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	s.stopSignals = func() {
		signal.Stop(ch)
		close(done)
	}
	go func() {
		select {
		case sig := <-ch:
			s.hookMu.Lock()
			hook := s.shutdownHook
			s.hookMu.Unlock()
			if hook != nil {
				hook(sig)
			}
			fmt.Fprintf(os.Stderr, "obsflag: %v: flushing profiles and traces\n", sig)
			s.Close()
			code := 128 + int(syscall.SIGTERM)
			if sig == os.Interrupt {
				code = 128 + int(syscall.SIGINT)
			}
			os.Exit(code)
		case <-done:
		}
	}()
}

// Close stops the live endpoint, profiling and sampling, detaches the
// registry and writes the metrics file, the trace file (clock-aligned
// across ranks when a world view gathered any), the heap profile and
// the -v summary, returning the first error. Safe to call twice.
func (s *Session) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.close() })
	return s.closeErr
}

func (s *Session) close() error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.stopSignals != nil {
		s.stopSignals()
		s.stopSignals = nil
	}
	sampled := s.stopSampler != nil
	if sampled {
		s.stopSampler() // samples the runtime one last time
		s.stopSampler = nil
	}
	if s.server != nil {
		keep(s.server.Close())
		s.server = nil
	}
	if s.stopCPU != nil {
		keep(s.stopCPU())
		s.stopCPU = nil
	}
	if s.reg != nil {
		obs.SetDefault(nil)
		if s.flags.Metrics != "" {
			if !sampled {
				obs.SampleRuntimeGauges(s.reg)
			}
			keep(writeFile(s.flags.Metrics, s.reg.WriteJSON))
		}
		if s.flags.Trace != "" {
			if s.view != nil {
				keep(writeFile(s.flags.Trace, func(w io.Writer) error {
					return s.view.WriteMergedTrace(w, s.reg)
				}))
			} else {
				keep(writeFile(s.flags.Trace, s.reg.WriteTrace))
			}
		}
		if s.flags.Verbose {
			keep(s.reg.WriteSummary(os.Stderr))
		}
	}
	if s.flags.MemProfile != "" {
		keep(obs.WriteHeapProfile(s.flags.MemProfile))
	}
	return firstErr
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("obsflag: writing %s: %w", path, err)
	}
	return f.Close()
}
