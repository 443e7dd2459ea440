// The -daemon client mode: instead of running experiments in-process,
// ngsbench speaks to a resident seqconvd — submit a job, poll it to a
// terminal state, stream the result down. -daemon-verify compares the
// streamed bytes against a local reference file, which is how the
// Makefile's endpoint smoke proves the daemon path is byte-identical to
// the seqconvert CLI.

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"parseq/internal/daemon"
	"parseq/internal/engine"
)

func runDaemonClient(base, specJSON, inPath, outPath, pick, verifyPath string) error {
	spec, err := engine.DecodeSpec([]byte(specJSON))
	if err != nil {
		return err
	}
	cl := &daemon.Client{Base: base}

	var input io.Reader
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if spec.InputName == "" && spec.InputPath == "" {
			spec.InputName = filepath.Base(inPath)
		}
		input = f
	}

	st, err := cl.Submit(spec, input)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Fprintf(os.Stderr, "ngsbench: job %s %s\n", st.ID, st.State)

	st, err = cl.Wait(context.Background(), st.ID, 200*time.Millisecond)
	if err != nil {
		return fmt.Errorf("wait: %w", err)
	}
	fmt.Fprintf(os.Stderr, "ngsbench: job %s %s (queued %dms, ran %dms, %d records, %d bytes out)\n",
		st.ID, st.State, st.QueuedMS, st.RunMS, st.Records, st.BytesOut)
	if st.State != daemon.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}

	// A directory destination receives every output file; otherwise the
	// job must resolve to one file (single output, or -daemon-file).
	if fi, err := os.Stat(outPath); err == nil && fi.IsDir() {
		for _, f := range st.Files {
			if err := fetchTo(cl, st.ID, f.Name, filepath.Join(outPath, f.Name), verifyPath); err != nil {
				return err
			}
		}
		return nil
	}
	return fetchTo(cl, st.ID, pick, outPath, verifyPath)
}

// fetchTo streams one result file to dst ("-" = stdout), optionally
// comparing it byte-for-byte against verifyPath.
func fetchTo(cl *daemon.Client, id, name, dst, verifyPath string) error {
	body, err := cl.Result(id, name)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	defer body.Close()

	var out io.Writer = os.Stdout
	if dst != "" && dst != "-" {
		f, err := os.Create(dst)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	if verifyPath == "" {
		_, err := io.Copy(out, body)
		return err
	}
	got, err := io.ReadAll(body)
	if err != nil {
		return err
	}
	if _, err := out.(io.Writer).Write(got); err != nil {
		return err
	}
	want, err := os.ReadFile(verifyPath)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("verify: result (%d bytes) differs from %s (%d bytes)", len(got), verifyPath, len(want))
	}
	fmt.Fprintf(os.Stderr, "ngsbench: verified %d bytes identical to %s\n", len(got), verifyPath)
	return nil
}
