package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parseq"
	"parseq/internal/daemon"
	"parseq/internal/flagstat"
	"parseq/internal/shard"
)

// The daemon_jobs workload drives internal/daemon over a loopback
// listener in this process. It is a closed loop: GOMAXPROCS clients,
// each waiting for its reply before sending the next job, because
// seqconvd's callers are scripts that wait for their result. Jobs are
// small, so upload, spool, queue and result streaming — not the engine
// — are most of a job's time.

const (
	daemonMinJobs = 240 // p95 then has 12 samples beyond it
	daemonPoll    = 2 * time.Millisecond
)

// daemonReads sizes the daemon's inputs: a quarter of the container
// workloads' reads.
func daemonReads(reads int) int { return max(reads/4, 200) }

// jobClass is one kind of job the clients send round-robin.
type jobClass struct {
	name   string // per-layer metric stem: upload, path, deflate
	spec   daemon.JobSpec
	upload string   // file streamed as the request body; "" submits by input_path
	want   []digest // the library's output files for the same spec
	in     int64    // bytes the job reads
	out    int64    // bytes the job returns
}

// jobTimes is one job seen from the client.
type jobTimes struct {
	class                   int
	start                   time.Time // when the POST began
	latency, submit, result time.Duration
	queuedMS, runMS         int64
	polls                   int
	shed                    bool
	err                     error
}

type daemonRun struct {
	jobs     []jobTimes
	makespan time.Duration
	spoolMB  float64
}

type daemonHarness struct {
	d       *daemon.Daemon
	srv     *http.Server
	served  chan struct{} // closed when srv.Serve has returned
	cl      *daemon.Client
	classes []jobClass
	clients int
}

// startDaemon starts the daemon on a loopback port with its spool under
// the work directory and computes each class's reference output with
// the library call the daemon's engine makes.
func startDaemon(e *env, in *inputs) (*daemonHarness, error) {
	spool, err := e.sub("spool")
	if err != nil {
		return nil, err
	}
	refDir, err := e.sub("daemon-ref")
	if err != nil {
		return nil, err
	}
	d, err := daemon.New(daemon.Options{SpoolDir: spool})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	d.Install(mux)
	clients := runtime.GOMAXPROCS(0)
	h := &daemonHarness{
		d: d, srv: &http.Server{Handler: mux}, served: make(chan struct{}), clients: clients,
		cl: &daemon.Client{
			Base: "http://" + ln.Addr().String(),
			HTTP: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		},
	}
	go func() {
		defer close(h.served)
		h.srv.Serve(ln) // returns when stop closes the server
	}()

	if h.classes, err = daemonClasses(in, refDir); err != nil {
		h.stop()
		return nil, fmt.Errorf("daemon reference: %w", err)
	}
	return h, nil
}

// daemonClasses builds the three job classes and, for each, the output
// of the library call its engine makes for the same spec.
func daemonClasses(in *inputs, refDir string) ([]jobClass, error) {
	ref := func(format string) parseq.Options {
		return parseq.Options{Format: format, Cores: 1, OutDir: refDir, OutPrefix: format}
	}
	bed, err := parseq.ConvertSAM(in.sam, ref("bed"))
	if err != nil {
		return nil, err
	}
	shards, err := parseq.ConvertSAMToBAM(in.sam, ref("bam"))
	if err != nil {
		return nil, err
	}
	p := shard.OpenPathProvider(in.bamx)
	stats, err := flagstat.Sharded(p, shard.Config{Ranks: 1})
	p.Close()
	if err != nil {
		return nil, err
	}
	report := []byte(stats.Format())
	classes := []jobClass{
		{name: "upload", spec: daemon.JobSpec{Op: daemon.OpConvert, Format: "bed", InputName: "in.sam"}, upload: in.sam, in: fileSize(in.sam)},
		{name: "path", spec: daemon.JobSpec{Op: daemon.OpFlagstat, InputPath: in.bamx}, in: fileSize(in.bamx),
			want: []digest{sha256.Sum256(report)}, out: int64(len(report))},
		{name: "deflate", spec: daemon.JobSpec{Op: daemon.OpConvert, Format: "bam", InputPath: in.sam}, in: fileSize(in.sam)},
	}
	for i, files := range map[int][]string{0: bed.Files, 2: shards.Files} {
		sum, n, err := hashFiles(files)
		if err != nil {
			return nil, err
		}
		classes[i].want, classes[i].out = []digest{sum}, n
	}
	return classes, nil
}

// stop closes the listener, waits for the server goroutine and then
// closes the daemon.
func (h *daemonHarness) stop() {
	h.srv.Close()
	<-h.served
	h.d.Close()
}

// outIn is result bytes ÷ input bytes of one job of each class.
func (h *daemonHarness) outIn() (float64, error) {
	var r sizeRatio
	for _, c := range h.classes {
		r.in += c.in
		r.out += c.out
	}
	return r.value()
}

// job runs one job from POST to the last result byte and then, off the
// clock, compares every result file with the library's.
func (h *daemonHarness) job(class int, buf *bytes.Buffer) jobTimes {
	c := &h.classes[class]
	jt := jobTimes{class: class}
	fail := func(err error) jobTimes { jt.err = err; return jt }

	var body io.Reader
	if c.upload != "" {
		f, err := os.Open(c.upload)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		body = f
	}
	t0 := time.Now()
	jt.start = t0
	st, err := h.cl.Submit(c.spec, body)
	jt.submit = time.Since(t0)
	if err != nil {
		var de *daemon.Error
		jt.shed = errors.As(err, &de) && de.Code == daemon.CodeOverloaded
		return fail(err)
	}
	for !st.State.Terminal() {
		time.Sleep(daemonPoll)
		if st, err = h.cl.Status(st.ID); err != nil {
			return fail(err)
		}
		jt.polls++
	}
	jt.queuedMS, jt.runMS = st.QueuedMS, st.RunMS
	if st.State != daemon.StateDone {
		return fail(fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error))
	}
	tr := time.Now()
	buf.Reset()
	ends := make([]int, 0, len(st.Files))
	for _, f := range st.Files {
		rc, err := h.cl.Result(st.ID, f.Name)
		if err != nil {
			return fail(err)
		}
		_, err = buf.ReadFrom(rc)
		rc.Close()
		if err != nil {
			return fail(err)
		}
		ends = append(ends, buf.Len())
	}
	jt.result = time.Since(tr)
	jt.latency = time.Since(t0)

	if len(ends) != len(c.want) {
		return fail(fmt.Errorf("%s job returned %d files, the library %d", c.name, len(ends), len(c.want)))
	}
	lo := 0
	for i, hi := range ends {
		if err := mismatch(c.name+" job result", sha256.Sum256(buf.Bytes()[lo:hi]), c.want[i]); err != nil {
			return fail(err)
		}
		lo = hi
	}
	return jt
}

// run sends jobs round-robin over the classes from h.clients clients
// until `seconds` have passed and at least minJobs were sent (exactly
// jobs of them when jobs > 0).
func (h *daemonHarness) run(seconds float64, jobs int, t *tally) *daemonRun {
	var next atomic.Int64
	var mu sync.Mutex
	var all []jobTimes
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < h.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var mine []jobTimes
			for {
				i := int(next.Add(1)) - 1
				if jobs > 0 && i >= jobs || jobs == 0 && i >= daemonMinJobs && time.Now().After(deadline) {
					break
				}
				mine = append(mine, h.job(i%len(h.classes), &buf))
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	run := &daemonRun{jobs: all, makespan: time.Since(start)}
	for _, j := range all {
		t.op(h.classes[j.class].name+" job", j.err)
	}
	filepath.WalkDir(h.d.Spool(), func(_ string, de fs.DirEntry, err error) error {
		if err == nil && !de.IsDir() {
			if fi, err := de.Info(); err == nil {
				run.spoolMB += float64(fi.Size()) / 1e6
			}
		}
		return nil
	})
	return run
}

// latenciesMS lists the latencies of the jobs that succeeded, all of
// them or one class's.
func (r *daemonRun) latenciesMS(class int) []float64 {
	var out []float64
	for _, j := range r.jobs {
		if j.err == nil && (class < 0 || j.class == class) {
			out = append(out, j.latency.Seconds()*1e3)
		}
	}
	return out
}

// p95MS is the 95th percentile latency. A refused or failed job misses
// any latency limit, so it counts as slower than every job that
// finished. With too few jobs for a p95 (a smoke run) it is the
// maximum.
func (r *daemonRun) p95MS() float64 {
	lat := r.latenciesMS(-1)
	worst := 0.0
	for _, v := range lat {
		worst = max(worst, v)
	}
	for range len(r.jobs) - len(lat) {
		lat = append(lat, worst*2)
	}
	if v, ok := percentile(lat, 0.95); ok {
		return v
	}
	return worst
}

func (r *daemonRun) jobsPerS() float64 {
	return float64(len(r.latenciesMS(-1))) / r.makespan.Seconds()
}
