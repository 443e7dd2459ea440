package sorter

import (
	"testing"

	"parseq/internal/bgzf"
	"parseq/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive the tests: the
// SAM input's batch line engine and the BAM input's reader and output
// writer run pipelines and codec pools that a sort must stop on every
// path, failed ones included. The shared deflate pool lives for
// the process, so it is started first.
func TestMain(m *testing.M) {
	pool := bgzf.SharedPool()
	leakcheck.Main(m, pool.Max()-pool.Workers())
}
