package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"parseq/internal/conv"
	"parseq/internal/fdr"
	"parseq/internal/mpi"
	"parseq/internal/nlmeans"
	"parseq/internal/partition"
	"parseq/internal/simdata"
)

// Ablations measures the design choices DESIGN.md calls out, head to
// head, on the scaled dataset: Algorithm 1's two boundary-adjustment
// directions, BAIX-indexed partial conversion vs a full scan, the fused
// vs two-pass FDR kernels, NL-means halo replication vs shared memory,
// and plain vs compressed BAMX conversion.
func Ablations(sc Scale) (*Report, error) {
	if err := sc.normalize(); err != nil {
		return nil, err
	}
	defer sc.cleanup()
	samPath, bamPath, err := sc.datasetPaths(0)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:      "ablations",
		Title:   "Design-choice ablations (measured on the scaled dataset; best of 3)",
		Columns: []string{"Ablation", "Variant A", "Variant B", "A", "B"},
	}
	measure := func(fn func() error) (time.Duration, error) {
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}

	// 1. Partition boundary adjustment direction.
	f, err := os.Open(samPath)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	fwd, err := measure(func() error {
		_, err := partition.SAMForward(f, 0, fi.Size(), 64)
		return err
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	bwd, err := measure(func() error {
		_, err := partition.SAMBackward(f, 0, fi.Size(), 64)
		return err
	})
	f.Close()
	if err != nil {
		return nil, err
	}
	r.AddRow("Algorithm 1 direction (64 parts)", "forward", "backward",
		fseconds(fwd.Seconds()), fseconds(bwd.Seconds()))

	// 2. Partial conversion: BAIX index vs full scan with filter.
	bamxPath := filepath.Join(sc.TmpDir, "abl.bamx")
	baixPath := filepath.Join(sc.TmpDir, "abl.baix")
	if _, err := conv.PreprocessBAMFile(bamPath, bamxPath, baixPath, sc.CodecWorkers); err != nil {
		return nil, err
	}
	region := &conv.Region{RName: "chr1", Beg: 1, End: 40000}
	indexed, err := measure(func() error {
		opts := conv.Options{Format: "bed", Cores: 1, OutDir: sc.TmpDir, OutPrefix: "abl_ix", Region: region}
		_, err := conv.ConvertBAMX(bamxPath, baixPath, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	fullScan, err := measure(func() error {
		opts := conv.Options{Format: "bed", Cores: 1, OutDir: sc.TmpDir, OutPrefix: "abl_fs"}
		_, err := conv.ConvertBAMX(bamxPath, baixPath, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.AddRow("Region query (chr1:1-40000)", "BAIX binary search", "full scan",
		fseconds(indexed.Seconds()), fseconds(fullScan.Seconds()))

	// 3. FDR kernel fusion.
	histData := simdata.Histogram(sc.Bins, 201)
	sims := simdata.Simulations(sc.Sims, sc.Bins, 202)
	pt := float64(sc.Sims) / 4
	fused, err := measure(func() error {
		_, err := fdr.Fused(histData, sims, pt)
		return err
	})
	if err != nil {
		return nil, err
	}
	twoPass, err := measure(func() error {
		_, err := fdr.TwoPass(histData, sims, pt)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.AddRow("FDR reduction", "fused (Alg. 2)", "two-pass",
		fseconds(fused.Seconds()), fseconds(twoPass.Seconds()))

	// 4. NL-means halo replication vs shared-memory workers.
	p := nlmeans.Params{R: 20, L: 15, Sigma: 10}
	v := histData
	if len(v) > 8000 {
		v = v[:8000]
	}
	halo, err := measure(func() error {
		return mpi.Run(4, func(c *mpi.Comm) error {
			_, err := nlmeans.DenoiseDistributed(c, v, p)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	shared, err := measure(func() error {
		_, err := nlmeans.DenoiseParallel(v, p, 4)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.AddRow("NL-means boundaries (4 ranks)", "replicated halo", "shared memory",
		fseconds(halo.Seconds()), fseconds(shared.Seconds()))

	// 5. Plain vs compressed BAMX conversion.
	bamzPath := filepath.Join(sc.TmpDir, "abl.bamz")
	if _, err := conv.CompressBAMXFileWorkers(bamxPath, bamzPath, 512, sc.CodecWorkers); err != nil {
		return nil, err
	}
	plain, err := measure(func() error {
		_, err := conv.ConvertBAMX(bamxPath, baixPath, conv.Options{
			Format: "bed", Cores: 1, OutDir: sc.TmpDir, OutPrefix: "abl_px",
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	compressed, err := measure(func() error {
		// CodecWorkers pinned to 1: this ablation isolates the inherent
		// decompression cost of BAMZ, so block readahead stays off.
		_, err := conv.ConvertBAMZ(bamzPath, baixPath, conv.Options{
			Format: "bed", Cores: 1, OutDir: sc.TmpDir, OutPrefix: "abl_pz", CodecWorkers: 1,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	xi := fileSize(bamxPath)
	zi := fileSize(bamzPath)
	r.AddRow("BAMX storage (full→BED)", "plain", "compressed (BAMZ)",
		fseconds(plain.Seconds()), fseconds(compressed.Seconds()))
	r.Notes = append(r.Notes,
		fmt.Sprintf("BAMZ is %d of %d bytes (%.0f%% of plain BAMX)", zi, xi, 100*float64(zi)/float64(xi)),
		"go test -bench=Ablation . runs the same comparisons under testing.B")
	return r, nil
}
