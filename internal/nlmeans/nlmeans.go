// Package nlmeans implements the 1-D non-local means denoising of NGS
// coverage histograms (paper Section IV-A, after Buades et al. and Han et
// al.): each bin is replaced by a weighted average of the bins in its
// search range, weighted by the similarity of the patches around them.
//
// Denoise is the reference: the direct transcription of Equations 1-3,
// Θ(N·(2r+1)·(2l+1)). DenoiseParallel (shared-memory workers) and
// DenoiseDistributed (the paper's strategy, in which each rank's
// partition is expanded by an (r+l)-wide replicated halo from its
// neighbours so no communication happens during the sweep) run one
// sliding-window kernel per worker or rank instead, Θ(N·r): for each
// offset d the patch distance is a running window sum updated in O(1)
// per bin, and each pair weight w(j, j+d) = w(j+d, j) is computed once
// and used at both bins (the 1-D integral-image trick of Darbon et al.,
// "Fast nonlocal filtering applied to electron cryomicroscopy", ISBI
// 2008). The first and last r+l bins keep the clamped direct kernel.
//
// The window sums are recomputed directly at absolute bins that are
// multiples of seedEvery, so DenoiseParallel is bit-identical at every
// core count and within 1e-9 of Denoise. A rank of DenoiseDistributed
// holds only its (r+l) halo to the left, so it seeds at its first bin
// instead: equal to DenoiseParallel bit for bit on one rank, within
// 1e-12 relative on more.
package nlmeans

import (
	"fmt"
	"math"
	"sync"

	"parseq/internal/mpi"
)

// Params are the three salient NL-means parameters.
type Params struct {
	R     int     // search range radius, in bins
	L     int     // half patch size, in bins
	Sigma float64 // filtering parameter σ
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.R < 1 {
		return fmt.Errorf("nlmeans: search radius %d < 1", p.R)
	}
	if p.L < 0 {
		return fmt.Errorf("nlmeans: half patch size %d < 0", p.L)
	}
	if !(p.Sigma > 0) {
		return fmt.Errorf("nlmeans: sigma %g must be positive", p.Sigma)
	}
	return nil
}

// Halo returns the per-side boundary width a partition must replicate:
// the search radius plus the patch half-size.
func (p Params) Halo() int { return p.R + p.L }

// patchDistance is the squared L2 distance between the patches centred
// at i and j, with indices clamped to the data (replicating edge bins).
func patchDistance(v []float64, i, j, l int) float64 {
	d := 0.0
	n := len(v)
	for k := -l; k <= l; k++ {
		a, b := clamp(i+k, n), clamp(j+k, n)
		diff := v[a] - v[b]
		d += diff * diff
	}
	return d
}

func clamp(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// denoisePoint computes NL[v_i] per Equations 1-3.
func denoisePoint(v []float64, i int, p Params) float64 {
	twoSigma2 := 2 * p.Sigma * p.Sigma
	n := len(v)
	sum, z := 0.0, 0.0
	for j := i - p.R; j <= i+p.R; j++ {
		jc := clamp(j, n)
		w := math.Exp(-patchDistance(v, i, jc, p.L) / twoSigma2)
		z += w
		sum += w * v[jc]
	}
	return sum / z
}

// seedEvery is the period, in absolute bins, at which every sliding
// window sum is recomputed directly. It bounds rounding drift, and
// because the seeds sit at absolute positions a worker's sums at a bin
// do not depend on where its partition starts.
const seedEvery = 256

// reseedRatio: a window sum is also recomputed directly once it falls
// below 1/reseedRatio of the largest value it held since its last seed
// (plus 2σ² of slack), because a large term leaving the window leaves its
// rounding error behind in a small sum.
const reseedRatio = 64

// window is one worker's scratch for the sliding-window kernel: the
// patch distance D_d(j) at the current position j for each offset d in
// 1..R, the largest value each held since it was computed directly, and
// a ring of the pair weights w(j', j'+d) for the last ring positions j'.
type window struct {
	p    Params
	dist []float64 // dist[d-1] = D_d(j)
	peak []float64
	w    []float64 // w[(d-1)*ring + j'&mask] = w(j', j'+d)
	ring int
}

func newWindow(p Params) *window {
	ring := 1
	for ring <= p.R {
		ring <<= 1
	}
	return &window{
		p:    p,
		dist: make([]float64, p.R),
		peak: make([]float64, p.R),
		w:    make([]float64, p.R*ring),
		ring: ring,
	}
}

// denoise writes NL[v_i] for the absolute bins [lo, hi) of an n-bin
// histogram into out, reading bin t as x[t-base]. Bins within R+L of
// either end of the histogram use denoisePoint; the rest share sliding
// window sums seeded at the last multiple of seedEvery at or before the
// first one, or as far left as x reaches.
func (k *window) denoise(x []float64, base, n, lo, hi int, out []float64) {
	r, l := k.p.R, k.p.L
	ilo, ihi := max(lo, r+l), min(hi, n-r-l)
	if ilo >= ihi {
		ilo, ihi = hi, hi
	}
	for i := lo; i < ilo; i++ {
		out[i-lo] = denoisePoint(x, i-base, k.p)
	}
	for i := ihi; i < hi; i++ {
		out[i-lo] = denoisePoint(x, i-base, k.p)
	}
	if ilo == ihi {
		return
	}
	twoSigma2 := 2 * k.p.Sigma * k.p.Sigma
	dist, peak, mask := k.dist[:r], k.peak[:r], k.ring-1
	first := ilo - r // the first position whose weights a bin needs
	start := max(base+l, first-first%seedEvery)
	for j := start; j < ihi; j++ {
		jx := j - base
		if j == start || j%seedEvery == 0 {
			for d := 1; d <= r; d++ {
				dist[d-1] = patchDistance(x, jx, jx+d, l)
				peak[d-1] = dist[d-1]
			}
		} else {
			// D_d(j) = D_d(j-1) + s_d(j+l) - s_d(j-1-l), s_d(t) = (v[t]-v[t+d])².
			in, gone := x[jx+l:jx+l+r+1], x[jx-l-1:jx-l+r]
			for d := 1; d <= r; d++ {
				a, b := in[0]-in[d], gone[0]-gone[d]
				s := dist[d-1] + (a*a - b*b)
				if s > peak[d-1] {
					peak[d-1] = s
				}
				if !(peak[d-1] <= reseedRatio*(s+twoSigma2)) {
					s = patchDistance(x, jx, jx+d, l)
					peak[d-1] = s
				}
				dist[d-1] = s
			}
		}
		if j < first {
			continue
		}
		slot := j & mask
		for d := 1; d <= r; d++ {
			k.w[(d-1)*k.ring+slot] = math.Exp(-dist[d-1] / twoSigma2)
		}
		if j < ilo {
			continue
		}
		// Bin j, offsets -R..R in Denoise's order: w(j-d, j) was stored
		// at position j-d.
		sum, z := 0.0, 0.0
		for d := r; d >= 1; d-- {
			w := k.w[(d-1)*k.ring+(j-d)&mask]
			z += w
			sum += w * x[jx-d]
		}
		z++
		sum += x[jx]
		for d := 1; d <= r; d++ {
			w := k.w[(d-1)*k.ring+slot]
			z += w
			sum += w * x[jx+d]
		}
		out[j-lo] = sum / z
	}
}

// Denoise is the sequential reference implementation. Complexity is
// Θ(N·(2r+1)·(2l+1)) as the paper states.
func Denoise(v []float64, p Params) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := make([]float64, len(v))
	for i := range v {
		out[i] = denoisePoint(v, i, p)
	}
	return out, nil
}

// DenoiseParallel runs the sliding-window kernel on shared-memory
// workers: the input is read-only, so partitions need no replication and
// no synchronisation beyond the final join, and each worker warms its
// sums up from the last seed before its partition. The result is
// bit-identical at every core count and within 1e-9 of Denoise.
func DenoiseParallel(v []float64, p Params, cores int) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	workers := min(max(cores, 1), max(len(v), 1))
	out := make([]float64, len(v))
	var wg sync.WaitGroup
	wg.Add(workers)
	for c := 0; c < workers; c++ {
		go func(rank int) {
			defer wg.Done()
			lo, hi := mpi.SplitRange(len(v), workers, rank)
			newWindow(p).denoise(v, 0, len(v), lo, hi, out[lo:hi])
		}(c)
	}
	wg.Wait()
	return out, nil
}

// DenoiseDistributed is the paper's three-step distributed strategy run
// on the message-passing runtime: (1) the histogram is evenly divided
// among ranks, (2) each partition P_i is expanded to P'_i by replicating
// an (r+l)-wide region from each neighbour, (3) each rank denoises only
// its original span against the expanded data, and rank 0 gathers the
// result. All ranks receive the full denoised histogram.
func DenoiseDistributed(c *mpi.Comm, v []float64, p Params) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(v) == 0 {
		return []float64{}, nil
	}
	rank, size := c.Rank(), c.Size()
	lo, hi := c.SplitRange(len(v))
	halo := p.Halo()
	if size > 1 && len(v)/size < halo {
		// A window may not reach past an immediate neighbour's partition:
		// the single-hop halo exchange (and the paper's replication
		// strategy) requires partitions at least (r+l) wide.
		return nil, fmt.Errorf("nlmeans: partition of %d bins narrower than the %d-bin halo; use fewer ranks or a smaller search radius", len(v)/size, halo)
	}

	// Step 2: halo exchange. Send my boundary regions to neighbours,
	// receive theirs. Even with empty partitions the protocol stays
	// symmetric: empty slices are exchanged.
	const (
		tagToNext = 10 // my ending region → successor's left halo
		tagToPrev = 11 // my starting region → predecessor's right halo
	)
	myPart := v[lo:hi]
	if rank+1 < size {
		end := myPart
		if len(end) > halo {
			end = myPart[len(myPart)-halo:]
		}
		if err := c.SendFloat64s(rank+1, tagToNext, end); err != nil {
			return nil, err
		}
	}
	if rank > 0 {
		start := myPart
		if len(start) > halo {
			start = myPart[:halo]
		}
		if err := c.SendFloat64s(rank-1, tagToPrev, start); err != nil {
			return nil, err
		}
	}
	var left, right []float64
	var err error
	if rank > 0 {
		left, err = c.RecvFloat64s(rank-1, tagToNext)
		if err != nil {
			return nil, err
		}
	}
	if rank+1 < size {
		right, err = c.RecvFloat64s(rank+1, tagToPrev)
		if err != nil {
			return nil, err
		}
	}

	// Expanded partition P'_i = left halo + P_i + right halo.
	expanded := make([]float64, 0, len(left)+len(myPart)+len(right))
	expanded = append(expanded, left...)
	expanded = append(expanded, myPart...)
	expanded = append(expanded, right...)

	// Step 3: denoise only the original span. Windows clamp only at the
	// true data edges, where the halo is absent by construction. The
	// window sums seed at the first position the span needs, since the
	// halo reaches no further left.
	local := make([]float64, len(myPart))
	newWindow(p).denoise(expanded, lo-len(left), len(v), lo, hi, local)

	// Gather rank partitions to root, then broadcast the assembled result.
	parts, err := c.Gather(0, packFloat64s(local))
	if err != nil {
		return nil, err
	}
	var full []byte
	if rank == 0 {
		assembled := make([]float64, 0, len(v))
		for _, part := range parts {
			assembled = append(assembled, unpackFloat64s(part)...)
		}
		full = packFloat64s(assembled)
	}
	full, err = c.Bcast(0, full)
	if err != nil {
		return nil, err
	}
	return unpackFloat64s(full), nil
}

func packFloat64s(vs []float64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		bits := math.Float64bits(v)
		for b := 0; b < 8; b++ {
			out[8*i+b] = byte(bits >> (8 * b))
		}
	}
	return out
}

func unpackFloat64s(d []byte) []float64 {
	out := make([]float64, len(d)/8)
	for i := range out {
		var bits uint64
		for b := 0; b < 8; b++ {
			bits |= uint64(d[8*i+b]) << (8 * b)
		}
		out[i] = math.Float64frombits(bits)
	}
	return out
}
