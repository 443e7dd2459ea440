// Package mpiflag wires the distributed rank transport into the
// command-line tools the way obsflag wires telemetry: every CLI
// registers the same -transport/-rank/-world/-coord/-listen flags,
// connects one Session around its work, and closes it to tear the
// world down. With the default in-process transport the session is a
// no-op and the tools behave exactly as before; with -transport tcp
// the same binary becomes one rank of a multi-process world, and the
// conv/hist/fdr/flagstat rank code runs over it unmodified.
//
// A distributed run starts the same command once per rank:
//
//	seqconvert -transport tcp -world 2 -rank 0 -coord host0:9900 -in data.sam ...
//	seqconvert -transport tcp -world 2 -rank 1 -coord host0:9900 -in data.sam ...
//
// Rank 0's process listens on the coordinator address; the rest dial
// it. Every process must be launched with the same world size, the
// same coordinator address and the same work flags.
package mpiflag

import (
	"flag"
	"fmt"

	"parseq/internal/mpi"
	"parseq/internal/mpinet"
	"parseq/internal/obsflag"
)

// Flags holds the parsed transport flag values.
type Flags struct {
	Transport string // -transport: "inproc" or "tcp"
	Rank      int    // -rank: this process's rank
	World     int    // -world: total rank count
	Coord     string // -coord: rendezvous host:port (rank 0 listens)
	Listen    string // -listen: worker mesh bind address
}

// Register installs the transport flags on fs (flag.CommandLine when
// nil) and returns the value holder to pass to Connect after parsing.
func Register(fs *flag.FlagSet) *Flags {
	if fs == nil {
		fs = flag.CommandLine
	}
	f := &Flags{}
	fs.StringVar(&f.Transport, "transport", "inproc", "rank transport: inproc (goroutine ranks in this process) or tcp (this process is one rank of a multi-process world)")
	fs.IntVar(&f.Rank, "rank", 0, "this process's rank in [0, world) (tcp transport)")
	fs.IntVar(&f.World, "world", 0, "total number of rank processes (tcp transport)")
	fs.StringVar(&f.Coord, "coord", "", "rendezvous address host:port; rank 0 listens on it, workers dial it (tcp transport)")
	fs.StringVar(&f.Listen, "listen", "", "bind address for this worker's mesh listener (tcp transport; default an ephemeral port)")
	return f
}

// Session is one CLI run's connection to the rank world. The zero-cost
// in-process session has a nil world; every method tolerates it, so
// callers use one code path for both transports.
type Session struct {
	world     *mpinet.World
	telemetry *mpi.Telemetry
	obs       *obsflag.Session // set by Start; closed after the world
}

// Start brings up a command's telemetry and its rank world together:
// the obs session (with its live-endpoint notice), the rendezvous, and
// — under TCP — the cross-rank gather that puts the whole world's
// metrics and spans behind rank 0's -metrics-addr endpoint. The
// returned session's Close tears both down, world first so the final
// telemetry shipment lands before the outputs are written.
func (f *Flags) Start(name string, of *obsflag.Flags) (*Session, error) {
	o, err := of.Open(name)
	if err != nil {
		return nil, err
	}
	s, err := f.Connect()
	if err != nil {
		o.Finish()
		return nil, err
	}
	s.obs = o
	if s.world != nil {
		// Ship metric/span deltas and heartbeats to rank 0 every
		// heartbeat; rank 0 folds every rank's into its world view. A
		// no-op when telemetry is disabled; in-process one registry
		// already holds the whole world.
		s.telemetry = mpi.StartTelemetry(s.world, mpi.TelemetryOptions{
			View: o.View(), Interval: of.Heartbeat,
		})
	}
	return s, nil
}

// Connect validates the flags and, for the TCP transport, performs the
// rendezvous. It blocks until the whole world is connected (or the
// join times out).
func (f *Flags) Connect() (*Session, error) {
	switch f.Transport {
	case "", "inproc":
		if f.World != 0 || f.Coord != "" {
			return nil, fmt.Errorf("mpiflag: -world/-coord require -transport tcp")
		}
		return &Session{}, nil
	case "tcp":
		if f.World < 1 {
			return nil, fmt.Errorf("mpiflag: -transport tcp requires -world")
		}
		w, err := mpinet.Connect(mpinet.Config{
			Rank:   f.Rank,
			World:  f.World,
			Coord:  f.Coord,
			Listen: f.Listen,
		})
		if err != nil {
			return nil, err
		}
		return &Session{world: w}, nil
	}
	return nil, fmt.Errorf("mpiflag: unknown transport %q", f.Transport)
}

// Distributed reports whether this process is one rank of a TCP world.
func (s *Session) Distributed() bool { return s.world != nil }

// Rank returns this process's rank: 0 for the in-process transport,
// where one process holds every rank.
func (s *Session) Rank() int {
	if s.world == nil {
		return 0
	}
	return s.world.Rank()
}

// Ranks resolves the rank count: the world size under TCP (every
// process must agree with it), the requested count in-process.
func (s *Session) Ranks(requested int) int {
	if s.world == nil {
		return requested
	}
	return s.world.Size()
}

// Launcher returns the launcher library code should run rank functions
// through: nil (= mpi.Run) in-process, the world's local-rank launcher
// under TCP.
func (s *Session) Launcher() mpi.Launcher {
	if s.world == nil {
		return nil
	}
	return s.world.Launcher()
}

// Close tears the world down: the telemetry loop's final shipment, a
// clean goodbye to the peers, then the connections (TCP delivers any
// in-flight frames before the goodbye, so a peer mid-collective is not
// disturbed), and last the obs session Start opened. Safe on the
// in-process session.
func (s *Session) Close() error {
	if s.obs != nil {
		defer s.obs.Finish()
	}
	if s.world == nil {
		return nil
	}
	s.telemetry.Stop()
	return s.world.Close()
}
