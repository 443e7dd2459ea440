// End-to-end tests over real HTTP: every byte the daemon serves must be
// identical to what the equivalent direct engine invocation produces —
// the service is a front door, never a different code path.

package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parseq/internal/conv"
	"parseq/internal/flagstat"
	"parseq/internal/hist"
	"parseq/internal/mpinet"
	"parseq/internal/obs"
	"parseq/internal/simdata"
)

// writeSAM materialises a synthetic dataset as a SAM file.
func writeSAM(t testing.TB, n int) (string, *simdata.Dataset) {
	t.Helper()
	d := simdata.Generate(simdata.DefaultConfig(n))
	path := filepath.Join(t.TempDir(), "in.sam")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteSAM(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, d
}

// startDaemon runs a daemon behind an httptest server, torn down with
// the test.
func startDaemon(t testing.TB, opts Options) (*Daemon, *httptest.Server) {
	t.Helper()
	d, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	srv := httptest.NewServer(muxFor(d))
	t.Cleanup(srv.Close)
	return d, srv
}

func waitDone(t testing.TB, cl *Client, id string) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := cl.Wait(ctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
	}
	return st
}

func fetch(t testing.TB, cl *Client, id, name string) []byte {
	t.Helper()
	body, err := cl.Result(id, name)
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	data, err := io.ReadAll(body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestConvertUploadByteIdentity submits a streamed-upload conversion
// over HTTP and proves each rank file is byte-identical to a direct
// conv.ConvertSAM run with the same options.
func TestConvertUploadByteIdentity(t *testing.T) {
	samPath, _ := writeSAM(t, 3000)
	_, srv := startDaemon(t, Options{Concurrency: 2})
	cl := &Client{Base: srv.URL}

	in, err := os.Open(samPath)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	st, err := cl.Submit(JobSpec{Op: OpConvert, Format: "bed", Ranks: 2, InputName: "in.sam"}, in)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state %s", st.State)
	}
	st = waitDone(t, cl, st.ID)
	if len(st.Files) != 2 {
		t.Fatalf("files = %+v, want 2 rank outputs", st.Files)
	}

	refDir := t.TempDir()
	ref, err := conv.ConvertSAM(samPath, conv.Options{
		Format: "bed", Cores: 2, OutDir: refDir, OutPrefix: "out",
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != ref.Stats.Records {
		t.Fatalf("records = %d, reference %d", st.Records, ref.Stats.Records)
	}
	for i, f := range st.Files {
		got := fetch(t, cl, st.ID, f.Name)
		want, err := os.ReadFile(ref.Files[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("rank file %s differs from direct conversion (%d vs %d bytes)",
				f.Name, len(got), len(want))
		}
		if int64(len(got)) != f.Size {
			t.Fatalf("reported size %d, streamed %d", f.Size, len(got))
		}
	}
}

// TestFlagstatJSONSubmit submits by input_path (no upload) and checks
// the report matches the direct engine output.
func TestFlagstatJSONSubmit(t *testing.T) {
	samPath, _ := writeSAM(t, 1500)
	_, srv := startDaemon(t, Options{})
	cl := &Client{Base: srv.URL}

	st, err := cl.Submit(JobSpec{Op: OpFlagstat, Ranks: 2, InputPath: samPath}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, cl, st.ID)

	want, err := flagstat.SAMFile(samPath, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := fetch(t, cl, st.ID, "")
	if string(got) != want.Format() {
		t.Fatalf("flagstat report differs:\n%s\nwant:\n%s", got, want.Format())
	}
	if st.Records != want.Total {
		t.Fatalf("records = %d, want %d", st.Records, want.Total)
	}
}

// TestHistJob checks the histogram TSV against the direct engine.
func TestHistJob(t *testing.T) {
	samPath, _ := writeSAM(t, 1500)
	_, srv := startDaemon(t, Options{})
	cl := &Client{Base: srv.URL}
	rname := simdata.MouseChromosomes(1000)[0].Name

	st, err := cl.Submit(JobSpec{Op: OpHist, RName: rname, BinSize: 200, Ranks: 2, InputPath: samPath}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, cl, st.ID)

	h, err := hist.FromSAMParallel(samPath, rname, 200, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := hist.WriteTSV(&want, h.Bins); err != nil {
		t.Fatal(err)
	}
	if got := fetch(t, cl, st.ID, ""); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("hist TSV differs (%d vs %d bytes)", len(got), want.Len())
	}
}

// TestCancelQueuedJob pins the DELETE path: a queued job cancels
// immediately and never runs.
func TestCancelQueuedJob(t *testing.T) {
	samPath, _ := writeSAM(t, 200)
	d, srv := startDaemon(t, Options{Concurrency: 1})
	gate := make(chan struct{})
	d.gate = gate
	cl := &Client{Base: srv.URL}

	first, err := cl.Submit(JobSpec{Op: OpFlagstat, InputPath: samPath}, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.Submit(JobSpec{Op: OpFlagstat, InputPath: samPath}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Cancel(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("canceled queued job reports %s", st.State)
	}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st, err = cl.Wait(ctx, first.ID, 10*time.Millisecond); err != nil || st.State != StateDone {
		t.Fatalf("first job: %v %s", err, st.State)
	}
	if st, err = cl.Status(second.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("second job: %v %s", err, st.State)
	}
}

// TestStructuredErrors pins the non-2xx contract: every failure is a
// JSON Error body with a stable code and the right status.
func TestStructuredErrors(t *testing.T) {
	samPath, _ := writeSAM(t, 100)
	d, srv := startDaemon(t, Options{Concurrency: 1})
	cl := &Client{Base: srv.URL}

	expect := func(t *testing.T, resp *http.Response, status int, code string) Error {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != status {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, status, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("error Content-Type = %q", ct)
		}
		var e Error
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("error body not structured: %v", err)
		}
		if e.Code != code {
			t.Fatalf("code = %q, want %q (%s)", e.Code, code, e.Message)
		}
		return e
	}

	t.Run("malformed spec", func(t *testing.T) {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"op":`))
		if err != nil {
			t.Fatal(err)
		}
		expect(t, resp, http.StatusBadRequest, CodeBadSpec)
	})
	t.Run("unknown field", func(t *testing.T) {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"formt":"bed"}`))
		if err != nil {
			t.Fatal(err)
		}
		expect(t, resp, http.StatusBadRequest, CodeBadSpec)
	})
	t.Run("json submit without input_path", func(t *testing.T) {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"op":"convert"}`))
		if err != nil {
			t.Fatal(err)
		}
		expect(t, resp, http.StatusBadRequest, CodeBadSpec)
	})
	t.Run("upload with input_path", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader("data"))
		req.Header.Set(SpecHeader, fmt.Sprintf(`{"input_path":%q}`, samPath))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		expect(t, resp, http.StatusBadRequest, CodeBadSpec)
	})
	t.Run("missing input file", func(t *testing.T) {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"input_path":"/nonexistent/x.sam"}`))
		if err != nil {
			t.Fatal(err)
		}
		expect(t, resp, http.StatusBadRequest, CodeBadSpec)
	})
	t.Run("unknown job", func(t *testing.T) {
		resp, err := http.Get(srv.URL + "/v1/jobs/j999999")
		if err != nil {
			t.Fatal(err)
		}
		expect(t, resp, http.StatusNotFound, CodeNotFound)
	})
	t.Run("bad method", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/jobs", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		expect(t, resp, http.StatusMethodNotAllowed, CodeBadMethod)
	})
	t.Run("result before done", func(t *testing.T) {
		gate := make(chan struct{})
		d.gate = gate
		st, err := cl.Submit(JobSpec{Op: OpFlagstat, InputPath: samPath}, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		expect(t, resp, http.StatusConflict, CodeNotDone)
		close(gate)
		waitDone(t, cl, st.ID)
	})
}

// TestResultFileSelection pins multi-file result handling: bare /result
// on a two-file job names the choices; only listed names resolve.
func TestResultFileSelection(t *testing.T) {
	samPath, _ := writeSAM(t, 500)
	_, srv := startDaemon(t, Options{})
	cl := &Client{Base: srv.URL}

	in, err := os.Open(samPath)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	st, err := cl.Submit(JobSpec{Op: OpConvert, Format: "sam", Ranks: 2, InputName: "in.sam"}, in)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, cl, st.ID)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bare /result on multi-file job: %d", resp.StatusCode)
	}
	for _, f := range st.Files {
		if !bytes.Contains(body, []byte(f.Name)) {
			t.Fatalf("selection error %s does not name %s", body, f.Name)
		}
	}
	if got := fetch(t, cl, st.ID, st.Files[1].Name); int64(len(got)) != st.Files[1].Size {
		t.Fatalf("selected file stream %d bytes, want %d", len(got), st.Files[1].Size)
	}
	if _, err := cl.Result(st.ID, "no-such-file"); err == nil {
		t.Fatal("unlisted file name served")
	}
}

// TestPanicIsolation proves a panicking job fails alone: the daemon and
// later jobs are untouched.
func TestPanicIsolation(t *testing.T) {
	samPath, _ := writeSAM(t, 100)
	reg := obs.New()
	d, srv := startDaemon(t, Options{Registry: reg, Concurrency: 1})
	cl := &Client{Base: srv.URL}

	armed := true
	d.testHook = func(*Job) {
		if armed {
			armed = false
			panic("engine blew up")
		}
	}
	st, err := cl.Submit(JobSpec{Op: OpFlagstat, InputPath: samPath}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err = cl.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "panicked") {
		t.Fatalf("panicked job: %s %q", st.State, st.Error)
	}

	st2, err := cl.Submit(JobSpec{Op: OpFlagstat, InputPath: samPath}, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, cl, st2.ID)
	if got := reg.Histogram("daemon.job_ns").Count(); got != 2 {
		t.Fatalf("daemon.job_ns observed %d jobs, want 2", got)
	}
}

// TestDrainingRejectsSubmissions pins the 503 contract after Drain.
func TestDrainingRejectsSubmissions(t *testing.T) {
	samPath, _ := writeSAM(t, 100)
	d, srv := startDaemon(t, Options{})
	cl := &Client{Base: srv.URL}

	if _, err := d.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	_, err := cl.Submit(JobSpec{Op: OpFlagstat, InputPath: samPath}, nil)
	var derr *Error
	if !asError(err, &derr) || derr.Code != CodeDraining {
		t.Fatalf("submit while draining: %v", err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"op":"flagstat","input_path":%q}`, samPath)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
}

func asError(err error, target **Error) bool {
	e, ok := err.(*Error)
	if ok {
		*target = e
	}
	return ok
}

// TestDistributedFleetByteIdentity is the ranks=2 end-to-end proof: a
// daemon plus one in-process loopback worker form a real mpinet fleet,
// a distributed conversion fans out across it, and the rank outputs are
// byte-identical to the same conversion run in-process. A second job
// over the same world proves the lockstep protocol is reusable, and the
// drain broadcast shuts the worker down cleanly.
func TestDistributedFleetByteIdentity(t *testing.T) {
	samPath, _ := writeSAM(t, 2000)
	coord := freeLoopbackAddr(t)

	workerErr := make(chan error, 1)
	go func() {
		workerErr <- RunWorker(WorkerConfig{
			Rank: 1, Ranks: 2, Coord: coord,
			Logf: t.Logf,
		})
	}()
	fleet, err := DialFleet(coord, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, srv := startDaemon(t, Options{Fleet: fleet, Concurrency: 1})
	cl := &Client{Base: srv.URL}

	st, err := cl.Submit(JobSpec{Op: OpConvert, Format: "bed", Ranks: 2, InputPath: samPath}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, cl, st.ID)
	if len(st.Files) != 2 {
		t.Fatalf("distributed convert files = %+v", st.Files)
	}

	refDir := t.TempDir()
	ref, err := conv.ConvertSAM(samPath, conv.Options{
		Format: "bed", Cores: 2, OutDir: refDir, OutPrefix: "out",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range st.Files {
		got := fetch(t, cl, st.ID, f.Name)
		want, err := os.ReadFile(ref.Files[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("distributed rank file %s differs from in-process conversion", f.Name)
		}
	}

	// Second distributed job over the same world: flagstat on the SAM
	// path, identical to the in-process reduction.
	st2, err := cl.Submit(JobSpec{Op: OpFlagstat, Ranks: 2, InputPath: samPath}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st2 = waitDone(t, cl, st2.ID)
	want, err := flagstat.SAMFile(samPath, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fetch(t, cl, st2.ID, ""); string(got) != want.Format() {
		t.Fatalf("distributed flagstat differs:\n%s", got)
	}

	// A fleet-ineligible spec with matching ranks is refused up front:
	// a sort, and a SAM input's container target (its per-rank BAMX
	// pairs would be listed by one process only).
	for _, spec := range []JobSpec{
		{Op: OpSort, Ranks: 2, InputPath: samPath},
		{Op: OpConvert, Format: "bamx", Ranks: 2, InputPath: samPath},
	} {
		_, err = cl.Submit(spec, nil)
		var derr *Error
		if !asError(err, &derr) || derr.Code != CodeBadSpec {
			t.Fatalf("fleet-ineligible submit %+v: %v", spec, err)
		}
	}

	if _, err := d.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-workerErr:
		if err != nil {
			t.Fatalf("worker exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not shut down after drain")
	}
}

func freeLoopbackAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestWorkerRankValidation pins the worker-side config contract.
func TestWorkerRankValidation(t *testing.T) {
	if err := RunWorker(WorkerConfig{Rank: 0, Ranks: 2}); err == nil {
		t.Fatal("rank 0 accepted as a worker")
	}
}

// TestConnectRoot checks mpinet's own rank-0 path is what DialFleet
// wraps (a fleet of one is refused — the daemon would deadlock talking
// to itself).
func TestFleetOfOneRefused(t *testing.T) {
	w, err := mpinet.Connect(mpinet.Config{Rank: 0, World: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := NewFleet(w); err == nil {
		t.Fatal("single-rank fleet accepted")
	}
}
