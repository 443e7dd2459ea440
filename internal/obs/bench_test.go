package obs

import (
	"testing"
)

// Kept: read by TestObsDisabledOverheadGuard.
//
// BenchmarkObsDisabledOverhead is the contract that lets instrumentation
// stay on by default in library code: with no registry installed, one
// counter update on the hot path is a single inlined nil check. The ci
// guard (TestObsDisabledOverheadGuard) holds this under 5 ns/op.
func BenchmarkObsDisabledOverhead(b *testing.B) {
	var r *Registry // telemetry disabled
	c := r.Counter("hot.path")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// Kept: bench/ has no probe for the disabled path (it measures only
// obs.enabled_overhead_share, a share of a whole journey).
//
// BenchmarkObsDisabledSpan measures the disabled span path: StartSpan +
// End on a nil registry.
func BenchmarkObsDisabledSpan(b *testing.B) {
	var r *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.StartSpan(0, 0, "phase")
		sp.End()
	}
}

// Kept: the per-update cost behind obs.enabled_overhead_share, which
// bench/ reports only as a share of a whole journey.
//
// BenchmarkObsEnabledCounter is the enabled-path reference point.
func BenchmarkObsEnabledCounter(b *testing.B) {
	r := New()
	c := r.Counter("hot.path")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// Kept: the per-span cost, same reason as BenchmarkObsEnabledCounter.
//
// BenchmarkObsEnabledSpan measures a live (untraced) span.
func BenchmarkObsEnabledSpan(b *testing.B) {
	r := New()
	for i := 0; i < b.N; i++ {
		sp := r.StartSpan(0, 0, "phase")
		sp.End()
	}
}

// TestObsDisabledOverheadGuard enforces the < 5 ns/op budget from the
// issue's acceptance criteria. Race instrumentation defeats inlining and
// multiplies every memory access, so the guard only runs on plain
// builds; timing noise is damped by taking the best of three runs.
func TestObsDisabledOverheadGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("disabled-path budget is measured without -race instrumentation")
	}
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	const budget = 5.0 // ns/op
	best := float64(1 << 62)
	for attempt := 0; attempt < 3; attempt++ {
		res := testing.Benchmark(BenchmarkObsDisabledOverhead)
		if res.N > 0 {
			if ns := float64(res.T.Nanoseconds()) / float64(res.N); ns < best {
				best = ns
			}
		}
		if best <= budget {
			return
		}
	}
	t.Errorf("disabled counter path costs %.2f ns/op, budget %v ns", best, budget)
}
