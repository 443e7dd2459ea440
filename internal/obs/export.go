package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// GaugeValue is a gauge's exported state.
type GaugeValue struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// HistogramBucket is one exported histogram bucket; Le is the exclusive
// upper bound (-1 for the overflow bucket). Empty buckets are elided.
type HistogramBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramValue is a histogram's exported state.
type HistogramValue struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Min     int64             `json:"min"`
	Max     int64             `json:"max"`
	MeanNS  float64           `json:"mean_ns"`
	Buckets []HistogramBucket `json:"buckets"`
}

// PhaseValue is one phase aggregate: the cross-rank wall-clock window,
// the summed span time, and the per-rank split.
type PhaseValue struct {
	WallNS  int64            `json:"wall_ns"`
	TotalNS int64            `json:"total_ns"`
	Count   int64            `json:"count"`
	PerRank map[string]int64 `json:"per_rank_ns"`
}

// Snapshot is a consistent-enough copy of the registry: each metric is
// read atomically; the set of metrics is read under the registry lock.
type Snapshot struct {
	WallNS     int64                     `json:"wall_ns"`
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]GaugeValue     `json:"gauges"`
	Histograms map[string]HistogramValue `json:"histograms"`
	Phases     map[string]PhaseValue     `json:"phases"`
	Derived    map[string]float64        `json:"derived"`
}

// Snapshot captures the registry's current state, computing the derived
// rates and fractions the raw counters imply:
//
//   - <x>.busy_ns with a sibling <x>.idle_ns yields <x>.busy_fraction,
//   - <x>.blocks and <x>.items yield <x>.blocks_per_sec / items_per_sec
//     over the registry's lifetime.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]GaugeValue),
		Histograms: make(map[string]HistogramValue),
		Phases:     make(map[string]PhaseValue),
		Derived:    make(map[string]float64),
	}
	if r == nil {
		return s
	}
	s.WallNS = time.Since(r.start).Nanoseconds()

	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	for n, a := range r.phases {
		pv := PhaseValue{
			WallNS:  (a.maxEnd - a.minStart).Nanoseconds(),
			TotalNS: a.total.Nanoseconds(),
			Count:   a.count,
			PerRank: make(map[string]int64, len(a.perRank)),
		}
		for rank, d := range a.perRank {
			pv.PerRank[fmt.Sprintf("%d", rank)] = d.Nanoseconds()
		}
		s.Phases[n] = pv
	}
	r.mu.Unlock()

	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = GaugeValue{Value: g.Value(), Max: g.Max()}
	}
	for n, h := range hists {
		hv := HistogramValue{Count: h.Count(), Sum: h.Sum()}
		if hv.Count > 0 {
			hv.Min = h.min.Load()
			hv.Max = h.max.Load()
			hv.MeanNS = float64(hv.Sum) / float64(hv.Count)
		}
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n > 0 {
				hv.Buckets = append(hv.Buckets, HistogramBucket{Le: BucketBound(i), Count: n})
			}
		}
		s.Histograms[n] = hv
	}

	wallSec := float64(s.WallNS) / 1e9
	for n, v := range s.Counters {
		switch {
		case strings.HasSuffix(n, ".busy_ns"):
			base := strings.TrimSuffix(n, ".busy_ns")
			if idle, ok := s.Counters[base+".idle_ns"]; ok && v+idle > 0 {
				s.Derived[base+".busy_fraction"] = float64(v) / float64(v+idle)
			}
		case strings.HasSuffix(n, ".blocks") && wallSec > 0:
			s.Derived[n+"_per_sec"] = float64(v) / wallSec
		case strings.HasSuffix(n, ".items") && wallSec > 0:
			s.Derived[n+"_per_sec"] = float64(v) / wallSec
		}
	}
	return s
}

// WriteJSON exports the snapshot as indented JSON — the `-metrics` file.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("obs: no registry")
	}
	s := r.Snapshot()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&s)
}

// WriteSummary prints the human-readable per-phase/per-rank table the
// CLIs emit on stderr under -v, followed by the busiest counters.
func (r *Registry) WriteSummary(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("obs: no registry")
	}
	s := r.Snapshot()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "phase\twall\ttotal\tspans\tper-rank\n")
	names := make([]string, 0, len(s.Phases))
	for n := range s.Phases {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := s.Phases[n]
		ranks := make([]string, 0, len(p.PerRank))
		for rank := range p.PerRank {
			ranks = append(ranks, rank)
		}
		sort.Strings(ranks)
		parts := make([]string, 0, len(ranks))
		for _, rank := range ranks {
			parts = append(parts, fmt.Sprintf("%s:%v", rank, time.Duration(p.PerRank[rank]).Round(time.Microsecond)))
		}
		fmt.Fprintf(tw, "%s\t%v\t%v\t%d\t%s\n", n,
			time.Duration(p.WallNS).Round(time.Microsecond),
			time.Duration(p.TotalNS).Round(time.Microsecond),
			p.Count, strings.Join(parts, " "))
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if len(s.Counters) > 0 {
		fmt.Fprintln(w)
		ctw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(ctw, "counter\tvalue\n")
		cnames := make([]string, 0, len(s.Counters))
		for n := range s.Counters {
			cnames = append(cnames, n)
		}
		sort.Strings(cnames)
		for _, n := range cnames {
			if strings.HasSuffix(n, "_ns") {
				fmt.Fprintf(ctw, "%s\t%v\n", n, time.Duration(s.Counters[n]).Round(time.Microsecond))
				continue
			}
			fmt.Fprintf(ctw, "%s\t%d\n", n, s.Counters[n])
		}
		if err := ctw.Flush(); err != nil {
			return err
		}
	}
	if len(s.Derived) > 0 {
		fmt.Fprintln(w)
		dtw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(dtw, "derived\tvalue\n")
		dnames := make([]string, 0, len(s.Derived))
		for n := range s.Derived {
			dnames = append(dnames, n)
		}
		sort.Strings(dnames)
		for _, n := range dnames {
			fmt.Fprintf(dtw, "%s\t%.3f\n", n, s.Derived[n])
		}
		return dtw.Flush()
	}
	return nil
}
