// Graceful-drain subprocess test: a child process wires a daemon the
// way cmd/seqconvd does — obsflag session, OnShutdown drain hook, HTTP
// listener — takes a job, receives SIGTERM mid-flight, and must finish
// the job, flush its metrics snapshot, and exit 128+SIGTERM. The parent
// then proves the drained job's output is byte-identical to a direct
// engine run. Re-exec follows the mpinet subprocess-test pattern: the
// test binary doubles as the daemon when SEQCONVD_TEST_MODE is set.

package daemon

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"parseq/internal/bgzf"
	"parseq/internal/conv"
	"parseq/internal/leakcheck"
	"parseq/internal/obs"
	"parseq/internal/obsflag"
)

// TestMain runs the drain child when asked to; otherwise it runs the
// tests and fails the package when goroutines outlive them: the job
// runners, and every engine run under them, must stop once the daemon
// is closed. The shared deflate pool lives for the process, so it is
// started first.
func TestMain(m *testing.M) {
	if os.Getenv("SEQCONVD_TEST_MODE") == "drain-daemon" {
		runDrainChild()
		return
	}
	pool := bgzf.SharedPool()
	leakcheck.Main(m, pool.Max()-pool.Workers())
}

// runDrainChild is the seqconvd stand-in: same session wiring, printed
// coordinates instead of flags.
func runDrainChild() {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "drain-child:", err)
		os.Exit(1)
	}
	flags := &obsflag.Flags{Metrics: os.Getenv("SEQCONVD_TEST_METRICS")}
	session, err := flags.Start()
	if err != nil {
		fail(err)
	}
	reg := session.Registry()
	if reg == nil {
		reg = obs.New()
		obs.SetDefault(reg)
	}
	d, err := New(Options{
		Registry: reg,
		SpoolDir: os.Getenv("SEQCONVD_TEST_SPOOL"),
	})
	if err != nil {
		fail(err)
	}
	mux := http.NewServeMux()
	d.Install(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	srv := &http.Server{Handler: mux}
	session.OnShutdown(func(sig os.Signal) {
		finished, err := d.Drain(30 * time.Second)
		if err != nil {
			fmt.Fprintln(os.Stderr, "drain-child:", err)
		}
		fmt.Fprintf(os.Stderr, "drain-child: drained, %d finished\n", finished)
		srv.Close()
		d.Close()
	})
	// The parent scrapes this line for the address.
	fmt.Printf("ready %s\n", ln.Addr())
	os.Stdout.Sync()
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fail(err)
	}
	// The OnShutdown signal handler exits the process; serving only ends
	// through it or through a fatal error above.
	select {}
}

func TestGracefulDrainSubprocess(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	samPath, _ := writeSAM(t, 5000)
	spool := t.TempDir()
	metricsPath := filepath.Join(t.TempDir(), "metrics.json")

	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"SEQCONVD_TEST_MODE=drain-daemon",
		"SEQCONVD_TEST_SPOOL="+spool,
		"SEQCONVD_TEST_METRICS="+metricsPath,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "ready "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		t.Fatalf("child never reported ready: %v", sc.Err())
	}

	// Submit a conversion and signal immediately: the job is queued or
	// barely running when SIGTERM lands, and drain must still finish it.
	cl := &Client{Base: "http://" + addr}
	st, err := cl.Submit(JobSpec{Op: OpConvert, Format: "bed", InputPath: samPath}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	err = cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("child exit: %v", err)
	}
	if code := ee.ExitCode(); code != 128+int(syscall.SIGTERM) {
		t.Fatalf("exit code = %d, want %d", code, 128+int(syscall.SIGTERM))
	}

	// The drained job's output survived in the spool, byte-identical to
	// the direct conversion.
	outPath := filepath.Join(spool, st.ID, "out_p000.bed")
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("drained job output: %v", err)
	}
	refDir := t.TempDir()
	ref, err := conv.ConvertSAM(samPath, conv.Options{
		Format: "bed", Cores: 1, OutDir: refDir, OutPrefix: "out",
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref.Files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("drained output differs from direct conversion (%d vs %d bytes)", len(got), len(want))
	}

	// The session flushed its telemetry on the way out, daemon metrics
	// included.
	snapshot, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatalf("metrics snapshot not flushed: %v", err)
	}
	if !bytes.Contains(snapshot, []byte("daemon.jobs")) {
		t.Fatalf("metrics snapshot missing daemon.jobs:\n%s", snapshot)
	}
}
