package main

import (
	"bytes"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestWorldSmoke (make world-smoke) drives three jobs with the real
// commands on two-process loopback TCP worlds, each against the same job
// run in one process: BAMX→BED, BAM -format pamx and SAM -format bamx.
// Rank 0 prints the in-process summary, timings aside, so the world's
// record count and every file; rank 1 prints nothing; and the output
// directory holds the in-process files, byte for byte, and nothing else
// (one out.pamx, written once).
func TestWorldSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the commands and runs two-process worlds")
	}
	bin, dir := t.TempDir(), t.TempDir()
	// go test puts its own toolchain first on the PATH.
	build := exec.Command("go", "build", "-o", bin, "parseq/cmd/seqconvert", "parseq/cmd/ngsgen")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// command runs a built command in dir/wd; wait collects its stdout.
	command := func(wd, name string, args ...string) (cmd *exec.Cmd, wait func() string) {
		var stdout, stderr bytes.Buffer
		cmd = exec.Command(filepath.Join(bin, name), args...)
		cmd.Dir, cmd.Stdout, cmd.Stderr = filepath.Join(dir, wd), &stdout, &stderr
		return cmd, func() string {
			if err := cmd.Wait(); err != nil {
				t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.String())
			}
			return stdout.String()
		}
	}
	run := func(wd, name string, args ...string) string {
		cmd, wait := command(wd, name, args...)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return wait()
	}
	run(".", "ngsgen", "-reads", "20000", "-out", "g")
	run(".", "seqconvert", "-in", "g.bam", "-format", "bamx", "-prefix", "g")

	durations := regexp.MustCompile(`[0-9][0-9.]*(ns|µs|ms|s|m|h)`)
	for _, job := range []struct {
		name string
		args []string
		says string
	}{
		{"bamx-bed", []string{"-in", "../g.bamx", "-format", "bed"}, "converted 20000 records "},
		{"bam-pamx", []string{"-in", "../g.bam", "-format", "pamx"}, "converted 20000 records into o/out.pamx "},
		{"sam-bamx", []string{"-in", "../g.sam", "-format", "bamx"}, "preprocessed 20000 records into o/out_m000.bamx, o/out_m001.bamx "},
	} {
		inproc, world := job.name+"-inproc", job.name+"-world"
		for _, wd := range []string{inproc, world} {
			if err := os.MkdirAll(filepath.Join(dir, wd, "o"), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		args := append(job.args, "-p", "2", "-out", "o")
		want := run(inproc, "seqconvert", args...)

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		coord := ln.Addr().String()
		ln.Close()
		var got [2]string
		var waits [2]func() string
		for rank := 1; rank >= 0; rank-- {
			var cmd *exec.Cmd
			cmd, waits[rank] = command(world, "seqconvert", append([]string{"-transport", "tcp", "-world", "2",
				"-rank", strconv.Itoa(rank), "-coord", coord}, args...)...)
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
		}
		for rank := range got {
			got[rank] = waits[rank]()
		}

		if !strings.HasPrefix(got[0], job.says) {
			t.Errorf("%s: rank 0 printed %q, want it to begin %q", job.name, got[0], job.says)
		}
		if durations.ReplaceAllString(got[0], "T") != durations.ReplaceAllString(want, "T") {
			t.Errorf("%s: rank 0 printed %q, in process %q", job.name, got[0], want)
		}
		if got[1] != "" {
			t.Errorf("%s: rank 1 printed %q", job.name, got[1])
		}
		wantFiles, err := os.ReadDir(filepath.Join(dir, inproc, "o"))
		if err != nil {
			t.Fatal(err)
		}
		gotFiles, err := os.ReadDir(filepath.Join(dir, world, "o"))
		if err != nil {
			t.Fatal(err)
		}
		if len(gotFiles) != len(wantFiles) {
			t.Fatalf("%s: the world wrote %d files, the process %d", job.name, len(gotFiles), len(wantFiles))
		}
		for i, f := range wantFiles {
			a, errA := os.ReadFile(filepath.Join(dir, inproc, "o", f.Name()))
			b, errB := os.ReadFile(filepath.Join(dir, world, "o", gotFiles[i].Name()))
			if errA != nil || errB != nil || f.Name() != gotFiles[i].Name() || !bytes.Equal(a, b) {
				t.Errorf("%s: world file %s differs from the in-process %s (%v, %v)", job.name, gotFiles[i].Name(), f.Name(), errA, errB)
			}
		}
	}
}
