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

	"parseq/internal/bam"
)

// TestWorldSmoke (make world-smoke) drives jobs with the real commands
// on two-process loopback TCP worlds, each against the same job run in
// one process: BAMX→BED, BAM -format pamx, SAM -format bamx, and samstat
// over a BAM with its .bai. Rank 0 prints the in-process summary,
// timings aside, so the world's record count and every file; rank 1
// prints nothing; and the output directory holds the in-process files,
// byte for byte, and nothing else (one out.pamx, written once). Over a
// truncated BAM, -format bed and -format pamx fail on both processes,
// and rank 1 still prints nothing.
func TestWorldSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the commands and runs two-process worlds")
	}
	bin, dir := t.TempDir(), t.TempDir()
	// go test puts its own toolchain first on the PATH.
	build := exec.Command("go", "build", "-o", bin, "parseq/cmd/seqconvert", "parseq/cmd/ngsgen", "parseq/cmd/samstat")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// command runs a built command in dir/wd; wait collects its stdout,
	// failing the test unless the command's exit matches fails.
	command := func(wd, name string, fails bool, args ...string) (cmd *exec.Cmd, wait func() string) {
		var stdout, stderr bytes.Buffer
		cmd = exec.Command(filepath.Join(bin, name), args...)
		cmd.Dir, cmd.Stdout, cmd.Stderr = filepath.Join(dir, wd), &stdout, &stderr
		return cmd, func() string {
			if err := cmd.Wait(); (err != nil) != fails {
				t.Fatalf("%s %s: exit %v, want failure %v\n%s", name, strings.Join(args, " "), err, fails, stderr.String())
			}
			return stdout.String()
		}
	}
	run := func(wd, name string, fails bool, args ...string) string {
		cmd, wait := command(wd, name, fails, args...)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return wait()
	}
	run(".", "ngsgen", false, "-reads", "20000", "-out", "g")
	run(".", "seqconvert", false, "-in", "g.bam", "-format", "bamx", "-prefix", "g")
	// No command writes a .bai; then a copy of g.bam cut mid-stream.
	raw, err := os.ReadFile(filepath.Join(dir, "g.bam"))
	if err != nil {
		t.Fatal(err)
	}
	var bai bytes.Buffer
	if err := bam.WriteIndexFile(bytes.NewReader(raw), &bai); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "g.bam.bai"), bai.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trunc.bam"), raw[:len(raw)*3/5], 0o644); err != nil {
		t.Fatal(err)
	}

	durations := regexp.MustCompile(`[0-9][0-9.]*(ns|µs|ms|s|m|h)`)
	for _, job := range []struct {
		name, cmd string
		args      []string
		says      string // "": the job fails
	}{
		{"bamx-bed", "seqconvert", []string{"-in", "../g.bamx", "-format", "bed", "-out", "o"}, "converted 20000 records "},
		{"bam-pamx", "seqconvert", []string{"-in", "../g.bam", "-format", "pamx", "-out", "o"}, "converted 20000 records into o/out.pamx "},
		{"sam-bamx", "seqconvert", []string{"-in", "../g.sam", "-format", "bamx", "-out", "o"}, "preprocessed 20000 records into o/out_m000.bamx, o/out_m001.bamx "},
		{"bai-samstat", "samstat", []string{"-in", "../g.bam"}, "20000 in total\n"},
		{"trunc-bed", "seqconvert", []string{"-in", "../trunc.bam", "-format", "bed", "-out", "o"}, ""},
		{"trunc-pamx", "seqconvert", []string{"-in", "../trunc.bam", "-format", "pamx", "-out", "o"}, ""},
	} {
		inproc, world := job.name+"-inproc", job.name+"-world"
		for _, wd := range []string{inproc, world} {
			if err := os.MkdirAll(filepath.Join(dir, wd, "o"), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		fails := job.says == ""
		args := append(job.args, "-p", "2")
		want := run(inproc, job.cmd, fails, args...)

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
			cmd, waits[rank] = command(world, job.cmd, fails, append([]string{"-transport", "tcp", "-world", "2",
				"-rank", strconv.Itoa(rank), "-coord", coord}, args...)...)
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
		}
		for rank := range got {
			got[rank] = waits[rank]()
		}

		if got[1] != "" {
			t.Errorf("%s: rank 1 printed %q", job.name, got[1])
		}
		if fails {
			continue
		}
		if !strings.HasPrefix(got[0], job.says) {
			t.Errorf("%s: rank 0 printed %q, want it to begin %q", job.name, got[0], job.says)
		}
		if durations.ReplaceAllString(got[0], "T") != durations.ReplaceAllString(want, "T") {
			t.Errorf("%s: rank 0 printed %q, in process %q", job.name, got[0], want)
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
