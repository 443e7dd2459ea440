package sam

import (
	"testing"

	"parseq/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive the tests: the
// batch line engine's scan goroutine and parse pipeline must stop on
// every path, a failed read or drain included.
func TestMain(m *testing.M) {
	leakcheck.Main(m, 0)
}
