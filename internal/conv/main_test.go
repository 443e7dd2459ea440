package conv

import (
	"testing"

	"parseq/internal/bgzf"
	"parseq/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive the tests: a
// rank's parse pipeline, a BAM shard writer's codec pool and the source
// readers under the provider must all stop on every path, failed
// conversions included. The shared deflate pool lives for the process,
// so it is started first.
func TestMain(m *testing.M) {
	pool := bgzf.SharedPool()
	leakcheck.Main(m, pool.Max()-pool.Workers())
}
