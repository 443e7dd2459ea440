package parpipe

import (
	"testing"

	"parseq/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive the tests: a closed
// Pipe must retire its workers and drain loop, and a closed Pool its
// workers.
func TestMain(m *testing.M) {
	leakcheck.Main(m, 0)
}
