package experiments

import (
	"os"

	"parseq/internal/cluster"
)

// Scale sets the workload sizes the experiments run at. The paper's
// datasets (37.5-117 GB alignments, 16M-bin histograms) are scaled to
// laptop size; the cluster model extrapolates the parallel behaviour, so
// speedup shapes do not depend on the absolute size (compute and I/O
// shrink together).
type Scale struct {
	Reads   int    // alignment records per generated dataset
	Bins    int    // histogram bins for the statistical experiments
	Sims    int    // FDR simulation datasets (paper: 80)
	TmpDir  string // scratch directory; "" uses a fresh temp dir
	KeepTmp bool   // leave scratch files behind for inspection
	Machine cluster.Machine
}

// DefaultScale is sized so the full suite finishes in about ten seconds.
func DefaultScale() Scale {
	return Scale{
		Reads:   20000,
		Bins:    40000,
		Sims:    80,
		Machine: cluster.Paper(),
	}
}

// QuickScale is sized for unit tests and smoke runs.
func QuickScale() Scale {
	return Scale{
		Reads:   1500,
		Bins:    3000,
		Sims:    10,
		Machine: cluster.Paper(),
	}
}

func (s *Scale) normalize() error {
	if s.Reads <= 0 {
		s.Reads = DefaultScale().Reads
	}
	if s.Bins <= 0 {
		s.Bins = DefaultScale().Bins
	}
	if s.Sims <= 0 {
		s.Sims = DefaultScale().Sims
	}
	if s.Machine.CoresPerNode == 0 {
		s.Machine = cluster.Paper()
	}
	if s.TmpDir == "" {
		dir, err := os.MkdirTemp("", "parseq-exp-")
		if err != nil {
			return err
		}
		s.TmpDir = dir
	}
	return os.MkdirAll(s.TmpDir, 0o755)
}

// cleanup removes the scratch directory unless KeepTmp is set.
func (s *Scale) cleanup() {
	if !s.KeepTmp && s.TmpDir != "" {
		os.RemoveAll(s.TmpDir)
	}
}
