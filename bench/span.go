package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 for the root
	Name   string             `json:"name"`
	Layer  string             `json:"layer"`
	Start  int64              `json:"start_ns"` // since the tracer was made
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"` // records, bytes in/out at this boundary
}

// tracer keeps the spans of one workload's traced run in memory; they
// share its run id and are written out once, at exit.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// start opens a span under parent (0 = root level) and returns its id.
func (t *tracer) start(parent int, name, layer string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and attaches its counts.
func (t *tracer) end(id int, counts map[string]float64) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Counts = counts
}

// add records a span after the fact, from times the caller took itself
// (a daemon job's phases are timed by the client that ran it).
func (t *tracer) add(parent int, name, layer string, start, end time.Time, counts map[string]float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Counts: counts,
	})
	return len(t.spans)
}

// seconds is the duration of a closed span.
func (t *tracer) seconds(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return float64(s.End-s.Start) / 1e9
}

// selfTimes gives each span's duration minus the part of its interval
// that its children cover; overlapping children are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// wellFormed reports the first span that is open, inverted, or not
// inside its parent; nil when every span is sound.
func wellFormed(spans []span) *span {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for i, s := range spans {
		if s.End < s.Start {
			return &spans[i]
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || s.Start < p.Start || s.End > p.End {
			return &spans[i]
		}
	}
	return nil
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto): one complete event per span, a layer per thread lane, the
// span fields and self time under args.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	lanes := map[string]int{}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		lane, ok := lanes[s.Layer]
		if !ok {
			lane = len(lanes) + 1
			lanes[s.Layer] = lane
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: lane,
			Args: map[string]any{
				"run": t.run, "id": s.ID, "parent": s.Parent, "layer": s.Layer,
				"start_ns": s.Start, "end_ns": s.End, "self_ns": self[s.ID], "counts": s.Counts,
			},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "run": t.run})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
