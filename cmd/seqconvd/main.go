// Command seqconvd is the resident conversion/analysis daemon: an HTTP
// front door over the seqconvert/samsort/samstat/ngsstat engines with a
// bounded job queue and load-shedding admission control. Submit a job,
// poll it, stream its result:
//
//	seqconvd -addr :8371 &
//	curl -X POST -H 'Content-Type: application/json' \
//	     -d '{"op":"convert","format":"bed","input_path":"/data/x.sam"}' \
//	     http://localhost:8371/v1/jobs
//	curl http://localhost:8371/v1/jobs/j000001
//	curl -o out.bed http://localhost:8371/v1/jobs/j000001/result
//
// Inputs can also stream in the submission body (the spec then rides
// the X-Seqconvd-Spec header). The observability plane — /metrics,
// /progress, /trace, /debug/pprof — shares the daemon's listener.
//
// With a worker fleet, jobs whose "ranks" match the fleet size fan out
// across processes over the mpinet transport:
//
//	seqconvd -addr :8371 -ranks 3 -coord :9900 &
//	seqconvd -worker -rank 1 -ranks 3 -coord host0:9900 &
//	seqconvd -worker -rank 2 -ranks 3 -coord host0:9900 &
//
// SIGINT/SIGTERM drains gracefully: admission stops immediately,
// in-flight jobs get -drain-timeout to finish, telemetry flushes, and
// the process exits 128+signal.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"parseq/internal/daemon"
	"parseq/internal/obs"
	"parseq/internal/obsflag"
)

func main() {
	var (
		addr     = flag.String("addr", ":8371", "HTTP listen address for the job API and observability plane")
		queue    = flag.Int("queue", daemon.DefaultMaxQueue, "bounded job queue capacity; submissions beyond it are shed with 429")
		maxBytes = flag.Int64("max-bytes", daemon.DefaultMaxBytes, "in-flight input byte budget across queued and running jobs")
		maxWait  = flag.Duration("max-wait", daemon.DefaultMaxWait, "predicted-wait ceiling; jobs the backlog would delay longer are shed")
		jobs     = flag.Int("jobs", 0, "jobs executed concurrently (0: 2)")
		spool    = flag.String("spool", "", "spool directory for job inputs and outputs (default: a temp dir)")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget for in-flight jobs on SIGINT/SIGTERM")
		ranks    = flag.Int("ranks", 1, "fleet world size including the daemon; >1 forms a worker fleet at -coord")
		coord    = flag.String("coord", "", "fleet rendezvous address (daemon listens, workers dial)")
		worker   = flag.Bool("worker", false, "run as a fleet worker rank instead of the daemon")
		rank     = flag.Int("rank", 0, "this worker's rank in [1, ranks)")
		listen   = flag.String("listen", "", "worker mesh bind address (default: ephemeral)")
		obsFlags = obsflag.Register(nil)
	)
	flag.Parse()

	if *worker {
		if err := daemon.RunWorker(daemon.WorkerConfig{
			Rank: *rank, Ranks: *ranks, Coord: *coord, Listen: *listen,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "seqconvd: "+format+"\n", args...)
			},
		}); err != nil {
			die(err)
		}
		return
	}

	obsSession, err := obsFlags.Open("seqconvd")
	if err != nil {
		die(err)
	}
	defer obsSession.Finish()
	// A resident service always carries a registry: admission control
	// reads the shared codec pool's throughput EWMA from it, and the
	// /metrics endpoint serves it. The obs flags merely add outputs.
	reg := obsSession.Registry()
	if reg == nil {
		reg = obs.New()
		obs.SetDefault(reg)
		defer obs.SetDefault(nil)
	}

	var fleet *daemon.Fleet
	if *ranks > 1 {
		if *coord == "" {
			die(fmt.Errorf("-ranks %d needs -coord", *ranks))
		}
		fmt.Fprintf(os.Stderr, "seqconvd: waiting for %d workers at %s\n", *ranks-1, *coord)
		fleet, err = daemon.DialFleet(*coord, *ranks)
		if err != nil {
			die(err)
		}
		fmt.Fprintf(os.Stderr, "seqconvd: fleet of %d ranks formed\n", *ranks)
	}

	d, err := daemon.New(daemon.Options{
		Registry: reg,
		Policy:   daemon.Policy{MaxQueue: *queue, MaxBytes: *maxBytes, MaxWait: *maxWait},
		SpoolDir: *spool, Concurrency: *jobs, Fleet: fleet,
	})
	if err != nil {
		die(err)
	}

	// One mux, one listener: the job API alongside the full
	// observability plane rather than a daemon-private copy of it.
	mux := http.NewServeMux()
	d.Install(mux)
	obsServer, err := obs.NewServer(reg, obsSession.View())
	if err != nil {
		die(err)
	}
	obsServer.Install(mux)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		die(err)
	}
	httpSrv := &http.Server{Handler: mux}

	obsSession.OnShutdown(func(sig os.Signal) {
		fmt.Fprintf(os.Stderr, "seqconvd: %v: draining (budget %v)\n", sig, *drainTO)
		finished, err := d.Drain(*drainTO)
		if err != nil {
			fmt.Fprintln(os.Stderr, "seqconvd:", err)
		}
		fmt.Fprintf(os.Stderr, "seqconvd: drained; %d jobs finished\n", finished)
		httpSrv.Close()
		d.Close()
	})

	fmt.Fprintf(os.Stderr, "seqconvd: listening on http://%s (spool %s)\n", ln.Addr(), d.Spool())
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		die(err)
	}
	// Serve only ends through the shutdown hook, whose signal handler
	// flushes telemetry and exits 128+signal; park here instead of
	// racing it to a plain exit 0.
	select {}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "seqconvd:", err)
	os.Exit(1)
}
