// Package leakcheck fails a test binary whose tests leave goroutines
// behind: a pooled codec stream abandoned without Close, say, parks its
// scan, worker and retire goroutines for the life of the process. A
// package opts in from its TestMain.
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Main runs the tests and exits with their status, turned into a failure
// when more goroutines are alive after them than before, plus slack,
// once a few seconds have passed. Start whatever legitimately lives for
// the process — bgzf.SharedPool — before calling Main, and pass as slack
// how far it may grow while the tests run.
func Main(m *testing.M, slack int) {
	base := runtime.NumGoroutine() + slack
	code := m.Run()
	if f := flag.Lookup("test.fuzz"); f != nil && f.Value.String() != "" {
		base++ // a fuzzing run's os/signal handler lives for the process
	}
	if code == 0 && !Settle(base) {
		buf := make([]byte, 1<<20)
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines at exit, %d allowed:\n%s\n",
			runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		code = 1
	}
	os.Exit(code)
}

// Settle waits a few seconds at most for the goroutine count to fall
// back to base, and reports whether it did.
func Settle(base int) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if runtime.NumGoroutine() <= base {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}
