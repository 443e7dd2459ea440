package bam

import (
	"testing"

	"parseq/internal/bgzf"
	"parseq/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive the tests: a
// Reader or Writer on a pooled codec, and a ParallelScanner, must be
// stopped by their Close. The shared deflate pool lives for the process,
// so it is started first.
func TestMain(m *testing.M) {
	pool := bgzf.SharedPool()
	leakcheck.Main(m, pool.Max()-pool.Workers())
}
