package obs

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPUProfile begins a CPU profile written to path and returns the
// function that stops it and closes the file. Wrap a run with it:
//
//	stop, err := obs.StartCPUProfile("cpu.pprof")
//	defer stop()
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// WriteHeapProfile captures a heap profile to path after forcing a GC,
// so the profile reflects live objects rather than garbage.
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
