package shard

import (
	"testing"

	"parseq/internal/bgzf"
	"parseq/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive the tests: every
// shard reader a provider opens, with whatever codec workers under it,
// must stop on Close, and ForEach must join its workers on every path.
// The shared deflate pool lives for the process, so it is started first.
func TestMain(m *testing.M) {
	pool := bgzf.SharedPool()
	leakcheck.Main(m, pool.Max()-pool.Workers())
}
