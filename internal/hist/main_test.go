package hist

import (
	"testing"

	"parseq/internal/bgzf"
	"parseq/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive the tests: the
// batch line engine's pipeline under the SAM path, the shard workers
// and the codec streams under the container paths must all stop on
// every path, failed reads included. The shared deflate pool lives for
// the process, so it is started first.
func TestMain(m *testing.M) {
	pool := bgzf.SharedPool()
	leakcheck.Main(m, pool.Max()-pool.Workers())
}
