package bgzf

import (
	"testing"

	"parseq/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive the tests: a pooled
// Reader or Writer must be stopped by its Close. The shared deflate
// pool lives for the process, so it is started first.
func TestMain(m *testing.M) {
	pool := SharedPool()
	leakcheck.Main(m, pool.Max()-pool.Workers())
}
