// Package fdr implements the false discovery rate computation of the
// paper's Section IV-B (after Han et al.): given one observed coverage
// histogram and B random-simulation datasets over the same M bins, it
// computes FDR(p_t), the expected fraction of reported peaks that are
// false, for a candidate threshold p_t.
//
// Sequential is the reference: a direct transcription of Equations 4-6,
// Θ(M·B²). The others share one per-bin kernel, countBins, which counts
// only the ranks the threshold can select: a rank above ⌊p_t⌋ never adds
// to FDR(p_t), so each bin keeps just its ⌊p_t⌋+1 largest simulated
// values, Θ(M·B·(⌊p_t⌋+1)) in all (one full sort of each bin at p_t ≥ B).
// They are the paper's fused parallel Algorithm 2 (ParallelFused, and
// Fused on one core), which applies the summation permutation of
// Equations 7-9 so numerator and denominator are reduced in a single pass
// with one global synchronisation; TwoPass, the unfused one-core baseline
// the paper's "certain extra speedup" claim is measured against; and
// Sweep, which answers every threshold from one pass bounded by the
// largest. All of it is integer counting, so every implementation returns
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

// countBins is the per-bin kernel: for bins [lo, hi) it adds to cntP[p]
// the number of bins whose p_i of Equation 4 is p, and to cntRank[r], for
// every r ≤ maxRank, the number of simulated values whose rank within
// their bin, rank_ib = Σ_b' I(r*_ib ≤ r*_ib') of Equation 5, is r. Both
// have len(sims)+1 buckets; a nil cntP is skipped, and so is cntRank when
// maxRank < 0. Buckets above maxRank are left untouched.
//
// rank_ib is the number of the bin's values at or above r*_ib, so only
// the bin's largest values can have a rank ≤ maxRank: the kernel keeps
// the min(maxRank, B)+1 largest in a descending buffer, and a value at or
// below a full buffer's last entry is dropped after one compare. Each tie
// run of the buffer then has the rank of its last position, ties counted
// as Equation 5 counts them, except a run that reaches a full buffer's
// end: equal values may have been dropped past it, and its rank is above
// maxRank anyway. That is Θ(B·(maxRank+1)) a bin, against Θ(B²) for a
// full sort; at maxRank ≥ B the buffer never fills and the kernel is an
// insertion sort of the bin. A NaN has rank 0 and adds to no other
// value's rank, since x <= NaN is false.
func countBins(hist []float64, sims [][]float64, lo, hi, maxRank int, cntRank, cntP []int64) {
	var top []float64
	if maxRank >= 0 {
		top = make([]float64, 0, min(maxRank, len(sims))+1)
	}
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
		if maxRank < 0 {
			continue
		}
		top = top[:0]
		for _, sim := range sims {
			x := sim[i]
			k := len(top)
			full := k == cap(top)
			if full && x <= top[k-1] {
				continue
			}
			if x != x {
				cntRank[0]++
				continue
			}
			if full {
				k-- // x displaces the smallest kept value
			} else {
				top = top[:k+1]
			}
			for k > 0 && top[k-1] < x {
				top[k] = top[k-1]
				k--
			}
			top[k] = x
		}
		for j := 0; j < len(top); {
			k := j + 1
			for k < len(top) && top[k] == top[j] {
				k++
			}
			if k == cap(top) {
				break
			}
			cntRank[k] += int64(k - j)
			j = k
		}
	}
}

// rankBound is the largest rank a threshold can select among bCount
// simulations, the largest r with float64(r) <= pt: ⌊pt⌋ clamped to
// [-1, bCount], and -1, no rank, for a negative or NaN pt.
func rankBound(pt float64, bCount int) int {
	switch {
	case !(pt >= 0):
		return -1
	case pt >= float64(bCount):
		return bCount
	}
	return int(pt)
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
	countBins(hist, sims, lo, hi, rankBound(pt, len(sims)), cntRank, cntP)
	return upTo(cntRank, pt), upTo(cntP, pt)
}

// numerator and denominator are the two halves of the kernel that
// TwoPass runs as separate sweeps over bins [lo, hi).
func numerator(hist []float64, sims [][]float64, pt float64, lo, hi int) int64 {
	cnt := make([]int64, len(sims)+1)
	countBins(hist, sims, lo, hi, rankBound(pt, len(sims)), cnt, nil)
	return upTo(cnt, pt)
}

func denominator(hist []float64, sims [][]float64, pt float64, lo, hi int) int64 {
	cnt := make([]int64, len(sims)+1)
	countBins(hist, sims, lo, hi, -1, nil, cnt)
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

// Sweep evaluates FDR over several candidate thresholds and returns the
// FDR for each, 0 where nothing is selected. One pass of the kernel
// counts every p_i and every rank up to the largest threshold's bound;
// each threshold is then a prefix sum of those counts. Callers use it to
// pick the smallest threshold whose FDR is below a target.
func Sweep(hist []float64, sims [][]float64, thresholds []float64) ([]float64, error) {
	if err := validate(hist, sims); err != nil {
		return nil, err
	}
	maxRank := -1
	for _, pt := range thresholds {
		maxRank = max(maxRank, rankBound(pt, len(sims)))
	}
	cntRank, cntP := make([]int64, len(sims)+1), make([]int64, len(sims)+1)
	countBins(hist, sims, 0, len(hist), maxRank, cntRank, cntP)
	out := make([]float64, len(thresholds))
	for k, pt := range thresholds {
		out[k], _ = fromSums(upTo(cntRank, pt), upTo(cntP, pt), len(sims))
	}
	return out, nil
}
