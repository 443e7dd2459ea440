// Package cluster is the analytic performance model standing in for the
// paper's evaluation hardware: a 32-node cluster of 8-core AMD Opteron
// machines (2.6 GHz, 8 GB RAM) driven over MPI, up to 256 cores. The
// experiments anchor each workload's compute to the paper's reported
// sequential seconds, take byte volumes from real one-core runs of the Go
// implementations, and the model extrapolates multi-core times. The
// curves are shape only: the model has not been checked against a P ≥ 2
// measurement on the development host (2 vCPUs, conversions of 6-20 ms —
// fixed cost and noise), which waits for a larger measured scale.
//
// The model captures exactly the effects the paper's discussion invokes:
//
//   - compute parallelises across all cores;
//   - disk bandwidth is shared per node, so I/O throughput scales with
//     node count, not core count — "the scalability within a single node
//     is mainly bridled by the I/O bottleneck" (Section V-F);
//   - sequential phases (the BAM preprocessor) do not parallelise;
//   - each global synchronisation costs a latency that grows with the
//     logarithm of the core count, which is what the fused Algorithm 2
//     saves over the two-pass FDR formulation.
package cluster

import (
	"fmt"
	"math"
)

// Machine describes the modelled cluster.
type Machine struct {
	CoresPerNode int     // cores sharing one node's disk (paper: 8)
	MaxCores     int     // total cores available (paper: 256)
	DiskMBps     float64 // per-node sustained disk bandwidth, MB/s
	BarrierBase  float64 // per-synchronisation latency at 2 cores, seconds
	StartupSec   float64 // fixed per-run startup (process launch, open)
}

// Paper returns a machine parameterised like the paper's testbed: 8-core
// nodes, a commodity-disk era bandwidth, and MPI-scale barrier latency.
func Paper() Machine {
	return Machine{
		CoresPerNode: 8,
		MaxCores:     256,
		DiskMBps:     100,
		BarrierBase:  50e-6,
		StartupSec:   0.05,
	}
}

// Workload is one job's resource profile, measured from real runs of the
// Go implementation.
type Workload struct {
	Name       string
	CPUSeconds float64 // parallelisable single-core compute time
	SeqSeconds float64 // unparallelisable portion (sequential preprocessing)
	ReadBytes  int64
	WriteBytes int64
	Barriers   int // global synchronisations per run
	// IOBonus multiplies the effective disk bandwidth for this workload
	// (≤ 0 means 1). Regular fixed-stride layouts stream faster than
	// ragged text — the paper's "layout regularity can help improve the
	// MPI-IO performance" observation (Sections V-C and V-E).
	IOBonus float64
}

// Scale returns the workload grown by factor f in data size (compute and
// bytes scale linearly; barrier count does not). It lets laptop-scale
// measurements stand in for the paper's 100 GB datasets.
func (w Workload) Scale(f float64) Workload {
	w.CPUSeconds *= f
	w.SeqSeconds *= f
	w.ReadBytes = int64(float64(w.ReadBytes) * f)
	w.WriteBytes = int64(float64(w.WriteBytes) * f)
	return w
}

// nodes returns how many nodes `cores` cores occupy.
func (m Machine) nodes(cores int) int {
	if cores <= 0 {
		return 1
	}
	return (cores + m.CoresPerNode - 1) / m.CoresPerNode
}

// IOSeconds models the I/O phase: total bytes across the per-node disks.
// Bandwidth scales with occupied nodes, not cores — the within-node
// bottleneck of Section V-F.
func (m Machine) IOSeconds(w Workload, cores int) float64 {
	bytes := float64(w.ReadBytes + w.WriteBytes)
	bw := m.DiskMBps * 1e6 * float64(m.nodes(cores))
	if w.IOBonus > 0 {
		bw *= w.IOBonus
	}
	return bytes / bw
}

// barrierSeconds models synchronisation cost: log2(p) latency per global
// barrier.
func (m Machine) barrierSeconds(w Workload, cores int) float64 {
	if cores < 2 || w.Barriers == 0 {
		return 0
	}
	return float64(w.Barriers) * m.BarrierBase * math.Log2(float64(cores))
}

// Time models the wall-clock seconds of the workload on `cores` cores.
// Compute and I/O do not overlap (the runtime's read → parse → convert →
// write phases are serial per buffer), so the terms add.
func (m Machine) Time(w Workload, cores int) (float64, error) {
	if cores < 1 {
		return 0, fmt.Errorf("cluster: invalid core count %d", cores)
	}
	if m.MaxCores > 0 && cores > m.MaxCores {
		return 0, fmt.Errorf("cluster: %d cores exceeds the machine's %d", cores, m.MaxCores)
	}
	t := m.StartupSec +
		w.SeqSeconds +
		w.CPUSeconds/float64(cores) +
		m.IOSeconds(w, cores) +
		m.barrierSeconds(w, cores)
	return t, nil
}

// Speedup models T(1)/T(cores).
func (m Machine) Speedup(w Workload, cores int) (float64, error) {
	t1, err := m.Time(w, 1)
	if err != nil {
		return 0, err
	}
	tp, err := m.Time(w, cores)
	if err != nil {
		return 0, err
	}
	return t1 / tp, nil
}

// SpeedupSeries models the speedup at each core count.
func (m Machine) SpeedupSeries(w Workload, cores []int) ([]float64, error) {
	out := make([]float64, len(cores))
	for i, c := range cores {
		s, err := m.Speedup(w, c)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// CalibrateCPU fits the workload's CPUSeconds so the modelled single-core
// time reproduces a measured single-core run of the real implementation:
// cpu = measured − startup − seq − io(1). The compute share is floored at
// 5% of the measurement so a fully I/O-bound measurement still yields a
// well-formed workload.
func (m Machine) CalibrateCPU(w Workload, measuredSeconds float64) Workload {
	cpu := measuredSeconds - m.StartupSec - w.SeqSeconds - m.IOSeconds(w, 1)
	if floor := 0.05 * measuredSeconds; cpu < floor {
		cpu = floor
	}
	w.CPUSeconds = cpu
	return w
}
