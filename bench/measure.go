package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// cell is one (journey, workload) pair of the matrix: a public call,
// how often a sample repeats it, and the check of what it left behind.
type cell struct {
	metric string
	// inner is fixed in the source, the same on every commit, so that a
	// sample lasts about a quarter of a second at the default input
	// size on the machine the benchmark was sized on.
	inner int
	run   func() error
	check func() error
}

// tally counts operations: every journey call, daemon job and
// verification is one, and one that errors, is shed or does not verify
// is a failure.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) op(what string, err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 20 {
		t.errs = append(t.errs, fmt.Sprintf("%s: %v", what, err))
	}
	return false
}

func (t *tally) verify(c *cell) {
	if c.check != nil {
		t.op("verify "+c.metric, c.check())
	}
}

func (t *tally) failedShare() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// minRounds is the fewest samples a cell's median may rest on.
const minRounds = 5

// sample makes c.inner calls back to back, timing each, and returns the
// seconds each took. A call that fails is counted and not timed. The
// heap is collected first, off the clock, so that a sample does not pay
// for the garbage of the cell before it.
func sample(c *cell, t *tally) []float64 {
	runtime.GC()
	times := make([]float64, 0, c.inner)
	for i := 0; i < c.inner; i++ {
		t0 := time.Now()
		err := c.run()
		d := time.Since(t0).Seconds()
		if t.op(c.metric, err) {
			times = append(times, d)
		}
	}
	return times
}

// measure samples every cell round-robin, so that a slow minute of the
// machine spreads over all cells instead of landing on one. A warm-up
// round is discarded; then rounds run for `seconds` (at least minRounds
// of them), or exactly `rounds` when that is set. It returns, per cell,
// the call times of each round. The first and the last sample of each
// cell are verified.
func measure(cells []*cell, seconds float64, rounds int, t *tally) map[string][][]float64 {
	for _, c := range cells {
		sample(c, t)
		t.verify(c)
	}
	out := make(map[string][][]float64, len(cells))
	start := time.Now()
	var longest time.Duration
	for r := 0; ; r++ {
		if rounds > 0 {
			if r == rounds {
				break
			}
		} else if r >= minRounds && time.Since(start)+longest > time.Duration(seconds*float64(time.Second)) {
			break
		}
		t0 := time.Now()
		for _, c := range cells {
			out[c.metric] = append(out[c.metric], sample(c, t))
		}
		longest = max(longest, time.Since(t0))
	}
	for _, c := range cells {
		t.verify(c)
	}
	return out
}

// summarizeRounds reduces a cell's samples to its value. A sample's time
// is that of its fastest call: what the machine adds to a call (a busy
// neighbour, a late wake-up) only ever makes it longer, and on a shared
// two-core box the slow tail of a 5 ms call is wide enough to drag the
// median of all calls about by 9 % from run to run, where the fastest
// call of each sample holds within 1-2 %. The cell's value is the median
// over the samples, its quartiles are theirs.
func summarizeRounds(rounds [][]float64, unit string) cellResult {
	var fastest []float64
	calls := 0
	for _, r := range rounds {
		if len(r) > 0 {
			fastest = append(fastest, slices.Min(r))
			calls += len(r)
		}
	}
	q1, q3 := quartiles(fastest)
	return cellResult{Median: median(fastest), Q1: q1, Q3: q3, N: len(fastest), Calls: calls, Unit: unit}
}
