package engine

import (
	"testing"

	"parseq/internal/bgzf"
	"parseq/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive the tests: every
// op a Spec names — conversions, sorts, tallies, failed runs included —
// must stop its ranks, pipelines and codec pools before Run returns. The
// shared deflate pool lives for the process, so it is started first.
func TestMain(m *testing.M) {
	pool := bgzf.SharedPool()
	leakcheck.Main(m, pool.Max()-pool.Workers())
}
