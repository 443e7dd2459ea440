package mpinet_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"parseq/internal/bgzf"
	"parseq/internal/conv"
	"parseq/internal/leakcheck"
	"parseq/internal/mpi"
	"parseq/internal/mpinet"
	"parseq/internal/obs"
	"parseq/internal/simdata"
)

// The acceptance tests for the distributed transport run the real
// thing: the test binary re-execs itself, once per rank, and the rank
// processes form a loopback TCP world. TestMain routes helper
// invocations (marked by MPINET_TEST_MODE) into rank duty instead of
// the test suite. The suite itself fails when goroutines outlive it:
// every peer's read loop and abort broadcast must end once its world is
// closed or aborted. The shared deflate pool lives for the process, so
// it is started first.

func TestMain(m *testing.M) {
	switch os.Getenv("MPINET_TEST_MODE") {
	case "":
		pool := bgzf.SharedPool()
		leakcheck.Main(m, pool.Max()-pool.Workers())
	case "convert":
		helperConvert()
	case "abortworld":
		helperAbortWorld()
	case "obsworld":
		helperObsWorld()
	case "obsheartbeat":
		helperObsHeartbeat()
	default:
		fmt.Fprintln(os.Stderr, "unknown MPINET_TEST_MODE")
		os.Exit(2)
	}
}

func helperConfig() mpinet.Config {
	rank, _ := strconv.Atoi(os.Getenv("MPINET_TEST_RANK"))
	world, _ := strconv.Atoi(os.Getenv("MPINET_TEST_WORLD"))
	return mpinet.Config{
		Rank:        rank,
		World:       world,
		Coord:       os.Getenv("MPINET_TEST_COORD"),
		DialTimeout: 15 * time.Second,
		JoinTimeout: 30 * time.Second,
		WaitTimeout: 30 * time.Second,
	}
}

// helperConvert is one rank of a distributed SAM conversion: connect,
// run the unmodified converter rank code over the TCP world, exit.
func helperConvert() {
	w, err := mpinet.Connect(helperConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, "connect:", err)
		os.Exit(1)
	}
	_, err = conv.ConvertSAM(os.Getenv("MPINET_TEST_IN"), conv.Options{
		Format:    "sam",
		Cores:     w.Size(),
		OutDir:    os.Getenv("MPINET_TEST_OUT"),
		OutPrefix: "tcp",
		Launch:    w.Launcher(),
	})
	// os.Exit skips defers: close explicitly so the FIN handshake runs
	// and slower ranks see a clean goodbye, not a dead link.
	w.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "convert:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// helperAbortWorld is one rank of the killed-worker scenario. Rank 1
// announces itself and hangs, waiting to be killed from outside; the
// survivors block in Recv on it and must drain with ErrAborted when
// its sockets die.
func helperAbortWorld() {
	w, err := mpinet.Connect(helperConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, "connect:", err)
		os.Exit(1)
	}
	defer w.Close()
	if w.Rank() == 1 {
		fmt.Println("victim-ready")
		os.Stdout.Sync()
		select {} // killed by the test
	}
	err = mpi.RunTransport(w, func(c *mpi.Comm) error {
		_, err := c.Recv(1, 9) // never sent
		return err
	})
	w.Close()
	if !errors.Is(err, mpi.ErrAborted) {
		fmt.Fprintf(os.Stderr, "rank %d error = %v, want ErrAborted\n", w.Rank(), err)
		os.Exit(1)
	}
	fmt.Println("world-aborted")
	os.Exit(0)
}

// helperCmd builds one rank process of a helper world.
func helperCmd(ctx context.Context, t *testing.T, mode string, rank, world int, coord string, extra map[string]string) *exec.Cmd {
	t.Helper()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"MPINET_TEST_MODE="+mode,
		"MPINET_TEST_RANK="+strconv.Itoa(rank),
		"MPINET_TEST_WORLD="+strconv.Itoa(world),
		"MPINET_TEST_COORD="+coord,
	)
	for k, v := range extra {
		cmd.Env = append(cmd.Env, k+"="+v)
	}
	return cmd
}

// TestSubprocessConvertByteIdentical is the tentpole acceptance test:
// a two-process TCP world converting a real SAM dataset must produce
// per-rank output files byte-identical to the in-process world's for
// the same input and rank count.
func TestSubprocessConvertByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	const world = 2
	dir := t.TempDir()

	ds := simdata.Generate(simdata.DefaultConfig(3000))
	samPath := filepath.Join(dir, "in.sam")
	sf, err := os.Create(samPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteSAM(sf); err != nil {
		t.Fatal(err)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}

	// In-process reference conversion with the same rank count.
	if _, err := conv.ConvertSAM(samPath, conv.Options{
		Format: "sam", Cores: world, OutDir: dir, OutPrefix: "ref",
	}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	coord := freeLoopbackAddr()
	extra := map[string]string{"MPINET_TEST_IN": samPath, "MPINET_TEST_OUT": dir}
	cmds := make([]*exec.Cmd, world)
	outs := make([]bytes.Buffer, world)
	for r := 0; r < world; r++ {
		cmds[r] = helperCmd(ctx, t, "convert", r, world, coord, extra)
		cmds[r].Stdout = &outs[r]
		cmds[r].Stderr = &outs[r]
		if err := cmds[r].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < world; r++ {
		if err := cmds[r].Wait(); err != nil {
			t.Fatalf("rank %d process: %v\n%s", r, err, outs[r].String())
		}
	}

	for r := 0; r < world; r++ {
		ref, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("ref_p%03d.sam", r)))
		if err != nil {
			t.Fatal(err)
		}
		tcp, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("tcp_p%03d.sam", r)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref, tcp) {
			t.Fatalf("rank %d output differs between transports: in-process %d bytes, tcp %d bytes",
				r, len(ref), len(tcp))
		}
		if len(ref) == 0 {
			t.Fatalf("rank %d produced no output", r)
		}
	}
}

// TestSubprocessKilledWorkerAbortsWorld kills one rank process of a
// three-process world with SIGKILL; the surviving ranks, blocked in
// Recv on it, must unwind with ErrAborted.
func TestSubprocessKilledWorkerAbortsWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	const world = 3
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	coord := freeLoopbackAddr()

	cmds := make([]*exec.Cmd, world)
	outs := make([]bytes.Buffer, world)
	var victimOut *bufio.Reader
	for r := 0; r < world; r++ {
		cmds[r] = helperCmd(ctx, t, "abortworld", r, world, coord, nil)
		if r == 1 {
			pipe, err := cmds[r].StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			victimOut = bufio.NewReader(pipe)
			cmds[r].Stderr = &outs[r]
		} else {
			cmds[r].Stdout = &outs[r]
			cmds[r].Stderr = &outs[r]
		}
		if err := cmds[r].Start(); err != nil {
			t.Fatal(err)
		}
	}

	// The victim announces itself only after the whole world is
	// connected (Connect returns post-rendezvous), so the kill lands on
	// a live, fully-meshed world.
	line, err := victimOut.ReadString('\n')
	if err != nil || line != "victim-ready\n" {
		t.Fatalf("victim announcement: %q, %v", line, err)
	}
	if err := cmds[1].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmds[1].Wait() // reap; a kill error is expected

	for _, r := range []int{0, 2} {
		if err := cmds[r].Wait(); err != nil {
			t.Fatalf("surviving rank %d: %v\n%s", r, err, outs[r].String())
		}
		if out := outs[r].String(); out != "world-aborted\n" {
			t.Fatalf("surviving rank %d output %q, want world-aborted", r, out)
		}
	}
}

// helperObsWorld is one rank of the live-observability world: every
// rank records work into its own registry and ships telemetry; rank 0
// additionally serves /metrics and /trace, announces the address on
// stdout, and holds the world open until the test closes its stdin.
func helperObsWorld() {
	reg := obs.New()
	reg.EnableTracing(0)
	obs.SetDefault(reg)
	w, err := mpinet.Connect(helperConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, "connect:", err)
		os.Exit(1)
	}

	// Each rank's "work": a span and a rank-distinct progress counter.
	sp := reg.StartSpan(w.Rank(), 0, fmt.Sprintf("work-rank%d", w.Rank()))
	reg.Counter("conv.records").Add(int64(100 * (w.Rank() + 1)))
	sp.End()

	var view *obs.WorldView
	var server *obs.Server
	if w.Rank() == 0 {
		view = obs.NewWorldView(reg, obs.WorldViewOptions{})
		server, err = obs.StartServer("127.0.0.1:0", reg, view)
		if err != nil {
			fmt.Fprintln(os.Stderr, "server:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics-addr %s\n", server.Addr())
		os.Stdout.Sync()
	}
	tel := mpi.StartTelemetry(w, mpi.TelemetryOptions{
		Registry: reg, View: view, Interval: 20 * time.Millisecond,
	})

	// Rank 0 holds the world open until the test is done scraping, then
	// releases the workers over the ordered data path.
	if w.Rank() == 0 {
		bufio.NewReader(os.Stdin).ReadString('\n')
		for r := 1; r < w.Size(); r++ {
			if err := w.Send(r, 99, []byte("done")); err != nil {
				fmt.Fprintln(os.Stderr, "release:", err)
				os.Exit(1)
			}
		}
	} else {
		if _, _, err := w.Recv(0); err != nil {
			fmt.Fprintln(os.Stderr, "await release:", err)
			os.Exit(1)
		}
	}
	tel.Stop()
	if server != nil {
		server.Close()
	}
	w.Close()
	os.Exit(0)
}

// helperObsHeartbeat is one rank of the lost-heartbeat scenario. All
// ranks ship telemetry; ranks 1 and 2 then hang forever (the test kills
// rank 2 and watches rank 0's /metrics flag the loss, then reaps the
// rest). Rank 0 uses a short stall threshold so the loss surfaces fast.
func helperObsHeartbeat() {
	reg := obs.New()
	obs.SetDefault(reg)
	w, err := mpinet.Connect(helperConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, "connect:", err)
		os.Exit(1)
	}
	reg.Counter("conv.records").Add(int64(10 * (w.Rank() + 1)))

	var view *obs.WorldView
	var server *obs.Server
	if w.Rank() == 0 {
		view = obs.NewWorldView(reg, obs.WorldViewOptions{StallAfter: 500 * time.Millisecond})
		server, err = obs.StartServer("127.0.0.1:0", reg, view)
		if err != nil {
			fmt.Fprintln(os.Stderr, "server:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics-addr %s\n", server.Addr())
		os.Stdout.Sync()
	}
	tel := mpi.StartTelemetry(w, mpi.TelemetryOptions{
		Registry: reg, View: view, Interval: 20 * time.Millisecond,
	})

	if w.Rank() != 0 {
		select {} // rank 2 is killed by the test; rank 1 is reaped at the end
	}
	bufio.NewReader(os.Stdin).ReadString('\n')
	tel.Stop()
	server.Close()
	w.Close()
	fmt.Println("heartbeat-done")
	os.Exit(0)
}

// scrape GETs one URL, returning the body ("" on any error — callers
// poll).
func scrape(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return ""
	}
	return string(body)
}

// startObsWorld launches a world-sized helper fleet, returning the
// commands, rank 0's stdin pipe, and rank 0's announced metrics URL.
func startObsWorld(ctx context.Context, t *testing.T, mode string, world int) ([]*exec.Cmd, []*bytes.Buffer, io.WriteCloser, string) {
	t.Helper()
	coord := freeLoopbackAddr()
	cmds := make([]*exec.Cmd, world)
	outs := make([]*bytes.Buffer, world)
	var rootOut *bufio.Reader
	var rootIn io.WriteCloser
	for r := 0; r < world; r++ {
		outs[r] = &bytes.Buffer{}
		cmds[r] = helperCmd(ctx, t, mode, r, world, coord, nil)
		cmds[r].Stderr = outs[r]
		if r == 0 {
			pipe, err := cmds[r].StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			rootOut = bufio.NewReader(pipe)
			stdin, err := cmds[r].StdinPipe()
			if err != nil {
				t.Fatal(err)
			}
			rootIn = stdin
		} else {
			cmds[r].Stdout = outs[r]
		}
		if err := cmds[r].Start(); err != nil {
			t.Fatal(err)
		}
	}
	line, err := rootOut.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "metrics-addr ") {
		t.Fatalf("rank 0 announcement: %q, %v\n%s", line, err, outs[0].String())
	}
	return cmds, outs, rootIn, "http://" + strings.TrimSpace(strings.TrimPrefix(line, "metrics-addr "))
}

// TestSubprocessObsWorldMetrics is the observability acceptance test: a
// four-process TCP world where rank 0's /metrics must expose
// rank-labeled counters from every rank plus the runtime gauges, and
// /trace must return one merged Chrome trace holding every rank's
// spans.
func TestSubprocessObsWorldMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	const world = 4
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmds, outs, rootIn, base := startObsWorld(ctx, t, "obsworld", world)

	// Poll /metrics until every rank's labeled series has landed.
	var body string
	deadline := time.Now().Add(60 * time.Second)
	for {
		body = scrape(base + "/metrics")
		ok := strings.Contains(body, "go_goroutines ") &&
			strings.Contains(body, "conv_records 100") // rank 0's own, unlabeled
		for r := 0; r < world && ok; r++ {
			ok = strings.Contains(body, fmt.Sprintf(`conv_records{rank="%d",host=`, r)) &&
				strings.Contains(body, fmt.Sprintf(`world_rank_up{rank="%d",host=`, r))
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never showed all ranks:\n%s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for r := 0; r < world; r++ {
		want := fmt.Sprintf(`world_rank_progress{rank="%d",host="`, r)
		i := strings.Index(body, want)
		if i < 0 {
			t.Fatalf("no progress series for rank %d", r)
		}
		line := body[i:]
		line = line[:strings.IndexByte(line, '\n')]
		if wantVal := fmt.Sprintf(" %d", 100*(r+1)); !strings.HasSuffix(line, wantVal) {
			t.Errorf("rank %d progress line %q, want value%s", r, line, wantVal)
		}
	}
	if strings.Count(body, "# TYPE conv_records counter") != 1 {
		t.Error("TYPE header repeated across rank label sets")
	}

	// One merged trace with every rank's span on rank 0's timeline.
	trace := scrape(base + "/trace")
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace), &doc); err != nil {
		t.Fatalf("merged trace is not one JSON document: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			seen[e.Name] = true
		}
	}
	for r := 0; r < world; r++ {
		if !seen[fmt.Sprintf("work-rank%d", r)] {
			t.Errorf("merged trace is missing rank %d's span (have %v)", r, seen)
		}
	}

	io.WriteString(rootIn, "done\n")
	for r := 0; r < world; r++ {
		if err := cmds[r].Wait(); err != nil {
			t.Fatalf("rank %d process: %v\n%s", r, err, outs[r].String())
		}
	}
}

// TestSubprocessObsHeartbeatLoss kills one rank of a three-process
// world and asserts rank 0's /metrics flips that rank's up-gauge to 0
// and counts it in world_down.
func TestSubprocessObsHeartbeatLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	const world = 3
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmds, outs, rootIn, base := startObsWorld(ctx, t, "obsheartbeat", world)
	defer func() {
		// Reap the hanging survivors.
		for _, r := range []int{1, 2} {
			cmds[r].Process.Kill()
			cmds[r].Wait()
		}
	}()

	// Wait until rank 2 is alive in the view, then kill its process.
	deadline := time.Now().Add(60 * time.Second)
	for !strings.Contains(scrape(base+"/metrics"), `world_rank_up{rank="2",host=`) {
		if time.Now().After(deadline) {
			t.Fatalf("rank 2 never appeared in the view\n%s", outs[0].String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := cmds[2].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmds[2].Wait()

	// The lost heartbeat must surface: rank 2 down, world_down ≥ 1.
	var body string
	for {
		body = scrape(base + "/metrics")
		i := strings.Index(body, `world_rank_up{rank="2",host="`)
		if i >= 0 {
			line := body[i:]
			line = line[:strings.IndexByte(line, '\n')]
			if strings.HasSuffix(line, " 0") {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank 2's heartbeat loss never surfaced:\n%s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !strings.Contains(body, "world_down ") || strings.Contains(body, "world_down 0") {
		t.Errorf("world_down does not count the lost rank:\n%s", body)
	}

	io.WriteString(rootIn, "done\n")
	if err := cmds[0].Wait(); err != nil {
		t.Fatalf("rank 0: %v\n%s", err, outs[0].String())
	}
	if !strings.Contains(outs[0].String(), "heartbeat lost") {
		t.Errorf("rank 0 stderr has no heartbeat-lost warning:\n%s", outs[0].String())
	}
}
