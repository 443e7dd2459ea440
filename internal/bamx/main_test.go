package bamx

import (
	"testing"

	"parseq/internal/bgzf"
	"parseq/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive the tests: a BAMZ
// file's read-ahead and a compressed writer's deflate pipeline must stop
// on Close, failed reads and writes included. The shared deflate pool
// lives for the process, so it is started first.
func TestMain(m *testing.M) {
	pool := bgzf.SharedPool()
	leakcheck.Main(m, pool.Max()-pool.Workers())
}
