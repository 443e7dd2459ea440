// Package fdr implements the false discovery rate computation of the
// paper's Section IV-B (after Han et al.): given one observed coverage
// histogram and B random-simulation datasets over the same M bins, it
// computes FDR(p_t), the expected fraction of reported peaks that are
// false, for a candidate threshold p_t.
//
// Sequential is the reference: a direct transcription of Equations 4-6,
// Θ(M·B²). The others share one per-bin kernel, countBins, Θ(M·B²) worst
// case but one insertion sort of B values per bin rather than B² rank
// comparisons: the paper's fused parallel Algorithm 2 (ParallelFused, and
// Fused on one core), which applies the summation permutation of
// Equations 7-9 so numerator and denominator are reduced in a single pass
// with one global synchronisation; the two-pass versions kept as the
// ablation baseline the paper's "certain extra speedup" claim is
// measured against; and Sweep, which answers every threshold from one
// pass. All of it is integer counting, so every implementation returns
// the same bits.
package fdr

import (
	"errors"
	"fmt"

	"parseq/internal/mpi"
)

// Errors reported by the computations.
var (
	ErrShape       = errors.New("fdr: simulation datasets must match the histogram's bin count")
	ErrNoSelection = errors.New("fdr: no bins selected at this threshold (denominator is zero)")
)

func validate(hist []float64, sims [][]float64) error {
	if len(hist) == 0 {
		return fmt.Errorf("%w: empty histogram", ErrShape)
	}
	if len(sims) == 0 {
		return fmt.Errorf("%w: no simulation datasets", ErrShape)
	}
	for b, s := range sims {
		if len(s) != len(hist) {
			return fmt.Errorf("%w: simulation %d has %d bins, histogram has %d",
				ErrShape, b, len(s), len(hist))
		}
	}
	return nil
}

// Sequential computes FDR(p_t) by direct transcription of Equations 4-6:
// first the per-bin p_i counts and per-simulation false-peak counts d_b,
// then the ratio. Complexity is Θ(M·B²).
func Sequential(hist []float64, sims [][]float64, pt float64) (float64, error) {
	if err := validate(hist, sims); err != nil {
		return 0, err
	}
	m, bCount := len(hist), len(sims)

	// Equation 4: p_i = Σ_b I(r_i ≤ r*_ib).
	p := make([]int, m)
	for i := 0; i < m; i++ {
		for b := 0; b < bCount; b++ {
			if hist[i] <= sims[b][i] {
				p[i]++
			}
		}
	}
	// Equation 5: d_b = Σ_i I( Σ_b' I(r*_ib ≤ r*_ib') ≤ p_t ).
	d := make([]int, bCount)
	for b := 0; b < bCount; b++ {
		for i := 0; i < m; i++ {
			rank := 0
			for b2 := 0; b2 < bCount; b2++ {
				if sims[b][i] <= sims[b2][i] {
					rank++
				}
			}
			if float64(rank) <= pt {
				d[b]++
			}
		}
	}
	// Equation 6, evaluated as Equation 9 is so both give the same bits.
	var num, den int64
	for _, db := range d {
		num += int64(db)
	}
	for i := 0; i < m; i++ {
		if float64(p[i]) <= pt {
			den++
		}
	}
	return fromSums(num, den, bCount)
}

// countBins is the per-bin kernel: for bins [lo, hi) it adds to
// cntRank[r] the number of simulated values whose rank within their bin,
// rank_ib = Σ_b' I(r*_ib ≤ r*_ib') of Equation 5, is r, and to cntP[p] the
// number of bins whose p_i of Equation 4 is p. Both have len(sims)+1
// buckets; a nil one is skipped. The bin's values are insertion-sorted
// once and rank_ib = m - #{values < r*_ib} is read off the sorted order,
// ties counted as Equation 5 counts them. A NaN has rank 0 and adds to no
// other value's rank, since x <= NaN is false.
func countBins(hist []float64, sims [][]float64, lo, hi int, cntRank, cntP []int64) {
	sorted := make([]float64, 0, len(sims))
	for i := lo; i < hi; i++ {
		if cntP != nil {
			pi, h := 0, hist[i]
			for _, sim := range sims {
				c := 0
				if h <= sim[i] {
					c = 1
				}
				pi += c
			}
			cntP[pi]++
		}
		if cntRank == nil {
			continue
		}
		sorted = sorted[:0]
		for _, sim := range sims {
			x := sim[i]
			if x != x {
				cntRank[0]++
				continue
			}
			k := len(sorted)
			sorted = append(sorted, x)
			for k > 0 && sorted[k-1] > x {
				sorted[k] = sorted[k-1]
				k--
			}
			sorted[k] = x
		}
		m := len(sorted)
		for j := 0; j < m; {
			k := j + 1
			for k < m && sorted[k] == sorted[j] {
				k++
			}
			cntRank[m-j] += int64(k - j)
			j = k
		}
	}
}

// upTo sums cnt[r] over the r with float64(r) <= pt, the comparison
// Equations 5 and 6 make: none for a negative or NaN p_t.
func upTo(cnt []int64, pt float64) int64 {
	var s int64
	for r := 0; r < len(cnt) && float64(r) <= pt; r++ {
		s += cnt[r]
	}
	return s
}

// binSums computes the fused per-bin contributions of Equations 7-8 for
// bins [lo, hi): sumDiamond = Σ_i Σ_b I(rank_ib ≤ p_t) and
// sumStar = Σ_i I(p_i ≤ p_t).
func binSums(hist []float64, sims [][]float64, pt float64, lo, hi int) (sumDiamond, sumStar int64) {
	cntRank, cntP := make([]int64, len(sims)+1), make([]int64, len(sims)+1)
	countBins(hist, sims, lo, hi, cntRank, cntP)
	return upTo(cntRank, pt), upTo(cntP, pt)
}

// numerator and denominator are the two halves of the kernel the
// two-pass versions run as separate sweeps over bins [lo, hi).
func numerator(hist []float64, sims [][]float64, pt float64, lo, hi int) int64 {
	cnt := make([]int64, len(sims)+1)
	countBins(hist, sims, lo, hi, cnt, nil)
	return upTo(cnt, pt)
}

func denominator(hist []float64, sims [][]float64, pt float64, lo, hi int) int64 {
	cnt := make([]int64, len(sims)+1)
	countBins(hist, sims, lo, hi, nil, cnt)
	return upTo(cnt, pt)
}

// fromSums applies Equation 9.
func fromSums(sumDiamond, sumStar int64, bCount int) (float64, error) {
	if sumStar == 0 {
		return 0, ErrNoSelection
	}
	return float64(sumDiamond) / (float64(bCount) * float64(sumStar)), nil
}

// Fused computes FDR(p_t) with the reformulated single-pass summation of
// Equations 7-9 on one core — the arithmetic Algorithm 2 distributes.
func Fused(hist []float64, sims [][]float64, pt float64) (float64, error) {
	if err := validate(hist, sims); err != nil {
		return 0, err
	}
	sd, ss := binSums(hist, sims, pt, 0, len(hist))
	return fromSums(sd, ss, len(sims))
}

// TwoPass computes FDR(p_t) with the unfused two-sweep arithmetic on one
// core: one full pass over the bins for the numerator, a second for the
// denominator. It exists so the fusion ablation can measure the real cost
// of sweeping the simulation matrix twice.
func TwoPass(hist []float64, sims [][]float64, pt float64) (float64, error) {
	if err := validate(hist, sims); err != nil {
		return 0, err
	}
	sd := numerator(hist, sims, pt, 0, len(hist))
	ss := denominator(hist, sims, pt, 0, len(hist))
	return fromSums(sd, ss, len(sims))
}

// ParallelFused is Algorithm 2: the datasets are partitioned in the bin
// direction, each rank computes its local sum◇ and sum* concurrently, and
// after one global synchronisation a single mpi.AllreduceSum adds both
// sums and every rank computes the FDR from them. All ranks return the
// result.
func ParallelFused(c *mpi.Comm, hist []float64, sims [][]float64, pt float64) (float64, error) {
	if err := validate(hist, sims); err != nil {
		return 0, err
	}
	lo, hi := c.SplitRange(len(hist)) // line 1: bin-direction partitioning
	sd, ss := binSums(hist, sims, pt, lo, hi)

	// Lines 4-8: one synchronisation and one reduction cover both sums
	// because the summation permutation made them independent local sums.
	if err := c.Barrier(); err != nil {
		return 0, err
	}
	total, err := mpi.AllreduceSum(c, []int64{sd, ss})
	if err != nil {
		return 0, err
	}
	return fromSums(total[0], total[1], len(sims))
}

// ParallelTwoPass is the unfused ablation baseline: the numerator is
// reduced in one parallel step, then — after an additional global
// synchronisation — the denominator in a second. The paper's summation
// permutation exists to eliminate exactly this extra barrier.
func ParallelTwoPass(c *mpi.Comm, hist []float64, sims [][]float64, pt float64) (float64, error) {
	if err := validate(hist, sims); err != nil {
		return 0, err
	}
	lo, hi := c.SplitRange(len(hist))

	// Pass 1: FDR numerator.
	sd := numerator(hist, sims, pt, lo, hi)
	if err := c.Barrier(); err != nil {
		return 0, err
	}
	totalD, err := mpi.AllreduceSum(c, []int64{sd})
	if err != nil {
		return 0, err
	}

	// Pass 2: FDR denominator, behind its own barrier.
	ss := denominator(hist, sims, pt, lo, hi)
	if err := c.Barrier(); err != nil {
		return 0, err
	}
	totalS, err := mpi.AllreduceSum(c, []int64{ss})
	if err != nil {
		return 0, err
	}
	return fromSums(totalD[0], totalS[0], len(sims))
}

// Sweep evaluates FDR over several candidate thresholds and returns the
// FDR for each, 0 where nothing is selected. One pass of the kernel
// counts every rank and p_i; each threshold is then a prefix sum of those
// counts. Callers use it to pick the smallest threshold whose FDR is
// below a target.
func Sweep(hist []float64, sims [][]float64, thresholds []float64) ([]float64, error) {
	if err := validate(hist, sims); err != nil {
		return nil, err
	}
	cntRank, cntP := make([]int64, len(sims)+1), make([]int64, len(sims)+1)
	countBins(hist, sims, 0, len(hist), cntRank, cntP)
	out := make([]float64, len(thresholds))
	for k, pt := range thresholds {
		out[k], _ = fromSums(upTo(cntRank, pt), upTo(cntP, pt), len(sims))
	}
	return out, nil
}
