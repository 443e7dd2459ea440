package fdr

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parseq/internal/mpi"
	"parseq/internal/obs"
	"parseq/internal/simdata"
)

// tinyCase builds a hand-checkable instance: 4 bins, 2 simulations.
func tinyCase() ([]float64, [][]float64) {
	hist := []float64{10, 1, 5, 0}
	sims := [][]float64{
		{2, 3, 5, 1},
		{4, 0, 6, 2},
	}
	return hist, sims
}

// Hand computation for tinyCase at p_t = 1:
//
// p_i = Σ_b I(r_i ≤ r*_ib):
//
//	bin0: 10≤2? no, 10≤4? no → 0
//	bin1: 1≤3 yes, 1≤0 no → 1
//	bin2: 5≤5 yes, 5≤6 yes → 2
//	bin3: 0≤1 yes, 0≤2 yes → 2
//
// denominator = #(p_i ≤ 1) = 2 (bins 0 and 1).
//
// rank_ib = Σ_b' I(r*_ib ≤ r*_ib'):
//
//	b=0: bins (2,3,5,1) vs columns:
//	  bin0: 2≤2,2≤4 → 2;  bin1: 3≤3,3≥0 → 1... careful: I(r*_i0 ≤ r*_ib'):
//	    bin1: 3≤3 yes, 3≤0 no → 1
//	  bin2: 5≤5 yes, 5≤6 yes → 2;  bin3: 1≤1 yes, 1≤2 yes → 2
//	d_0 = #(rank ≤ 1) = 1 (bin1).
//	b=1: bins (4,0,6,2):
//	  bin0: 4≤2 no, 4≤4 yes → 1;  bin1: 0≤3 yes, 0≤0 yes → 2
//	  bin2: 6≤5 no, 6≤6 yes → 1;  bin3: 2≤1 no, 2≤2 yes → 1
//	d_1 = 3 (bins 0, 2, 3).
//
// numerator = (1+3)/2 = 2.
// FDR(1) = 2 / 2 = 1.
func TestSequentialHandComputed(t *testing.T) {
	hist, sims := tinyCase()
	got, err := Sequential(hist, sims, 1)
	if err != nil {
		t.Fatalf("Sequential: %v", err)
	}
	if math.Abs(got-1.0) > 1e-12 {
		t.Errorf("FDR(1) = %g, want 1", got)
	}
}

func TestFusedMatchesSequential(t *testing.T) {
	for _, c := range []struct {
		m, b int
		seed int64
		pts  []float64
	}{
		{500, 12, 21, []float64{0, 1, 3, 6, 12}},
		// Σd/B/den and Σd/(B·den) differ in the last bit here.
		{100, 40, 1, []float64{39}},
	} {
		hist := simdata.Histogram(c.m, c.seed)
		sims := simdata.Simulations(c.b, c.m, c.seed+1)
		for _, pt := range c.pts {
			seq, errSeq := Sequential(hist, sims, pt)
			fused, errFused := Fused(hist, sims, pt)
			if (errSeq == nil) != (errFused == nil) {
				t.Fatalf("B=%d pt=%g: error mismatch %v vs %v", c.b, pt, errSeq, errFused)
			}
			if seq != fused {
				t.Errorf("B=%d pt=%g: Sequential %v vs Fused %v", c.b, pt, seq, fused)
			}
		}
	}
}

func TestParallelFusedMatchesSequential(t *testing.T) {
	hist := simdata.Histogram(300, 31)
	sims := simdata.Simulations(10, 300, 32)
	want, err := Sequential(hist, sims, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 3, 5, 16} {
		results := make([]float64, ranks)
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			v, err := ParallelFused(c, hist, sims, 2)
			if err != nil {
				return err
			}
			results[c.Rank()] = v
			return nil
		})
		if err != nil {
			t.Fatalf("ParallelFused(ranks=%d): %v", ranks, err)
		}
		for r, v := range results {
			if v != want {
				t.Errorf("ranks=%d rank %d = %g, want %g", ranks, r, v, want)
			}
		}
	}
}

// TestParallelFusedReducesOnce: Algorithm 2 adds sum◇ and sum* in one
// reduction, so each non-root rank sends exactly one message.
func TestParallelFusedReducesOnce(t *testing.T) {
	reg := obs.New()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	hist := simdata.Histogram(300, 31)
	sims := simdata.Simulations(10, 300, 32)
	const ranks = 3
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		_, err := ParallelFused(c, hist, sims, 2)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	for r := 1; r < ranks; r++ {
		name := fmt.Sprintf("mpi.rank%d.sends", r)
		if got := s.Counters[name]; got != 1 {
			t.Errorf("%s = %d, want 1", name, got)
		}
	}
}

// ParallelTwoPass is the unfused parallel version, kept as a test oracle
// (the fusion ablation models it from TwoPass): the numerator is reduced
// in one parallel step, then, after an additional global synchronisation,
// the denominator in a second. The paper's summation permutation exists
// to eliminate exactly this extra barrier.
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

func TestParallelTwoPassMatchesFused(t *testing.T) {
	hist := simdata.Histogram(200, 41)
	sims := simdata.Simulations(8, 200, 42)
	for _, pt := range []float64{1, 4} {
		var fused, twoPass float64
		err := mpi.Run(4, func(c *mpi.Comm) error {
			f, err := ParallelFused(c, hist, sims, pt)
			if err != nil {
				return err
			}
			tp, err := ParallelTwoPass(c, hist, sims, pt)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				fused, twoPass = f, tp
			}
			return nil
		})
		if err != nil {
			t.Fatalf("pt=%g: %v", pt, err)
		}
		if fused != twoPass {
			t.Errorf("pt=%g: fused %g vs two-pass %g", pt, fused, twoPass)
		}
	}
}

func TestShapeValidation(t *testing.T) {
	if _, err := Sequential(nil, [][]float64{{1}}, 1); !errors.Is(err, ErrShape) {
		t.Errorf("empty histogram: %v", err)
	}
	if _, err := Sequential([]float64{1}, nil, 1); !errors.Is(err, ErrShape) {
		t.Errorf("no simulations: %v", err)
	}
	if _, err := Sequential([]float64{1, 2}, [][]float64{{1}}, 1); !errors.Is(err, ErrShape) {
		t.Errorf("ragged simulation: %v", err)
	}
	if _, err := Fused([]float64{1, 2}, [][]float64{{1}}, 1); !errors.Is(err, ErrShape) {
		t.Errorf("Fused ragged: %v", err)
	}
}

func TestNoSelectionError(t *testing.T) {
	// Histogram hugely above all simulations: p_i = 0 everywhere, so with
	// p_t = -1 nothing selects.
	hist := []float64{100, 100}
	sims := [][]float64{{1, 1}, {2, 2}}
	if _, err := Sequential(hist, sims, -1); !errors.Is(err, ErrNoSelection) {
		t.Errorf("Sequential err = %v, want ErrNoSelection", err)
	}
	if _, err := Fused(hist, sims, -1); !errors.Is(err, ErrNoSelection) {
		t.Errorf("Fused err = %v, want ErrNoSelection", err)
	}
}

// Property: FDR is scale-free in the simulated ranks — permuting the
// simulation order leaves the result unchanged.
func TestSimulationOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		hist := simdata.Histogram(100, seed)
		sims := simdata.Simulations(6, 100, seed+1)
		a, errA := Fused(hist, sims, 2)
		// Rotate simulations.
		rot := append(append([][]float64{}, sims[3:]...), sims[:3]...)
		b, errB := Fused(hist, rot, 2)
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return true
		}
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: FDR numerator and denominator both grow with p_t, and the
// denominator count is monotone, so selection counts never shrink.
func TestThresholdMonotonicity(t *testing.T) {
	hist := simdata.Histogram(400, 51)
	sims := simdata.Simulations(10, 400, 52)
	prevDen := int64(-1)
	for pt := 0.0; pt <= 10; pt++ {
		_, ss := binSums(hist, sims, pt, 0, len(hist))
		if ss < prevDen {
			t.Fatalf("denominator shrank at pt=%g: %d < %d", pt, ss, prevDen)
		}
		prevDen = ss
	}
}

func TestSweep(t *testing.T) {
	hist := simdata.Histogram(200, 61)
	sims := simdata.Simulations(8, 200, 62)
	thresholds := []float64{0, 2, 4, 8}
	got, err := Sweep(hist, sims, thresholds)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(got) != len(thresholds) {
		t.Fatalf("len = %d", len(got))
	}
	for k, pt := range thresholds {
		want, err := Fused(hist, sims, pt)
		if errors.Is(err, ErrNoSelection) {
			want = 0
		} else if err != nil {
			t.Fatal(err)
		}
		if got[k] != want {
			t.Errorf("Sweep[%d] = %g, want %g", k, got[k], want)
		}
	}
}

func TestParallelValidationErrors(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if _, err := ParallelFused(c, []float64{1, 2}, [][]float64{{1}}, 1); !errors.Is(err, ErrShape) {
			return errors.New("ParallelFused accepted ragged input")
		}
		if _, err := ParallelTwoPass(c, []float64{1, 2}, [][]float64{{1}}, 1); !errors.Is(err, ErrShape) {
			return errors.New("ParallelTwoPass accepted ragged input")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParallelNoSelection(t *testing.T) {
	hist := []float64{100, 100, 100, 100}
	sims := [][]float64{{1, 1, 1, 1}, {2, 2, 2, 2}}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if _, err := ParallelFused(c, hist, sims, -1); !errors.Is(err, ErrNoSelection) {
			return errors.New("ParallelFused without selection succeeded")
		}
		if _, err := ParallelTwoPass(c, hist, sims, -1); !errors.Is(err, ErrNoSelection) {
			return errors.New("ParallelTwoPass without selection succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTwoPassMatchesSequential(t *testing.T) {
	hist := simdata.Histogram(150, 81)
	sims := simdata.Simulations(7, 150, 82)
	for _, pt := range []float64{0, 2, 5} {
		seq, errA := Sequential(hist, sims, pt)
		tp, errB := TwoPass(hist, sims, pt)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("pt=%g: error mismatch %v vs %v", pt, errA, errB)
		}
		if seq != tp {
			t.Errorf("pt=%g: Sequential %g vs TwoPass %g", pt, seq, tp)
		}
	}
	if _, err := TwoPass(nil, sims, 1); !errors.Is(err, ErrShape) {
		t.Error("TwoPass accepted empty histogram")
	}
}

func TestSweepPropagatesShapeError(t *testing.T) {
	if _, err := Sweep([]float64{1}, [][]float64{{1, 2}}, []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("Sweep err = %v", err)
	}
}

// directCounts is countBins by Sequential's loops: one comparison per
// pair for Equation 5's ranks, one per simulation for Equation 4's p_i.
func directCounts(hist []float64, sims [][]float64) (cntRank, cntP []int64) {
	cntRank, cntP = make([]int64, len(sims)+1), make([]int64, len(sims)+1)
	for i := range hist {
		p := 0
		for _, s := range sims {
			if hist[i] <= s[i] {
				p++
			}
		}
		cntP[p]++
		for _, s := range sims {
			rank := 0
			for _, s2 := range sims {
				if s[i] <= s2[i] {
					rank++
				}
			}
			cntRank[rank]++
		}
	}
	return cntRank, cntP
}

// checkBoundedCounts runs countBins at every bound from -1 to B+1 against
// directCounts: p_i exact at every bound, every rank up to the bound
// exact, and every bucket above it untouched.
func checkBoundedCounts(t *testing.T, hist []float64, sims [][]float64) {
	t.Helper()
	b := len(sims)
	wantRank, wantP := directCounts(hist, sims)
	for bound := -1; bound <= b+1; bound++ {
		gotRank, gotP := make([]int64, b+1), make([]int64, b+1)
		countBins(hist, sims, 0, len(hist), bound, gotRank, gotP)
		for r := range wantRank {
			want := wantRank[r]
			if r > bound {
				want = 0
			}
			if gotRank[r] != want || gotP[r] != wantP[r] {
				t.Fatalf("bound %d bucket %d: rank %d want %d, p %d want %d",
					bound, r, gotRank[r], want, gotP[r], wantP[r])
			}
		}
	}
}

// checkImplementations requires Sequential's bits, or its error, at every
// threshold from Fused, TwoPass, ParallelFused at 1, 2 and 3 ranks, Sweep
// over that threshold alone, and Sweep over all of them at once (0 where
// nothing is selected).
func checkImplementations(t *testing.T, hist []float64, sims [][]float64, pts []float64) {
	t.Helper()
	sweep, err := Sweep(hist, sims, pts)
	if err != nil {
		t.Fatal(err)
	}
	for k, pt := range pts {
		want, errWant := Sequential(hist, sims, pt)
		if errWant != nil && !errors.Is(errWant, ErrNoSelection) {
			t.Fatal(errWant)
		}
		one, err := Sweep(hist, sims, []float64{pt})
		if err != nil {
			t.Fatal(err)
		}
		if sweep[k] != want || one[0] != want {
			t.Errorf("pt=%g: Sweep %v, Sweep alone %v, Sequential %v", pt, sweep[k], one[0], want)
		}
		for name, run := range map[string]func([]float64, [][]float64, float64) (float64, error){
			"Fused": Fused, "TwoPass": TwoPass,
		} {
			got, err := run(hist, sims, pt)
			if !errors.Is(err, errWant) || got != want {
				t.Errorf("pt=%g: %s %v (%v), Sequential %v (%v)", pt, name, got, err, want, errWant)
			}
		}
		for _, ranks := range []int{1, 2, 3} {
			got := make([]float64, ranks)
			errs := make([]error, ranks)
			if err := mpi.Run(ranks, func(c *mpi.Comm) error {
				got[c.Rank()], errs[c.Rank()] = ParallelFused(c, hist, sims, pt)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for r := range got {
				if !errors.Is(errs[r], errWant) || got[r] != want {
					t.Errorf("pt=%g ranks=%d rank %d: ParallelFused %v (%v), Sequential %v (%v)",
						pt, ranks, r, got[r], errs[r], want, errWant)
				}
			}
		}
	}
}

// thresholdsFor is the threshold table of the bounded kernel's tests:
// negative, zero, fractional, both ends of the rank range and past it,
// +Inf and NaN.
func thresholdsFor(b int) []float64 {
	return []float64{-1, 0, 0.5, 1, 2.7, float64(b) - 1, float64(b), float64(b) + 3, math.Inf(1), math.NaN()}
}

func TestRankBound(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		pt   float64
		b    int
		want int
	}{
		{-1, 40, -1}, {-0.5, 40, -1}, {nan, 40, -1}, {math.Inf(-1), 40, -1},
		{0, 40, 0}, {0.5, 40, 0}, {1, 40, 1}, {2.7, 40, 2},
		{39, 40, 39}, {40, 40, 40}, {43, 40, 40}, {inf, 40, 40}, {1, 1, 1}, {2, 1, 1},
	} {
		if got := rankBound(c.pt, c.b); got != c.want {
			t.Errorf("rankBound(%g, %d) = %d, want %d", c.pt, c.b, got, c.want)
		}
	}
}

// TestBoundedKernelCases runs the bounded kernel's edge cases through
// countBins at every bound and through every implementation at every
// threshold of thresholdsFor.
func TestBoundedKernelCases(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	// bins lays out per-bin rows: row i holds bin i's histogram value,
	// then its B simulated values.
	bins := func(rows ...[]float64) ([]float64, [][]float64) {
		hist := make([]float64, len(rows))
		sims := make([][]float64, len(rows[0])-1)
		for k := range sims {
			sims[k] = make([]float64, len(rows))
		}
		for i, row := range rows {
			hist[i] = row[0]
			for k := range sims {
				sims[k][i] = row[k+1]
			}
		}
		return hist, sims
	}
	// tieHeavy draws small integers with some NaNs and infinities.
	tieHeavy := func(m, b int) ([]float64, [][]float64) {
		rng := rand.New(rand.NewSource(int64(b)))
		rows := make([][]float64, m)
		for i := range rows {
			rows[i] = make([]float64, b+1)
			for k := range rows[i] {
				switch n := rng.Intn(40); {
				case n == 0:
					rows[i][k] = nan
				case n == 1:
					rows[i][k] = inf
				case n == 2:
					rows[i][k] = -inf
				default:
					rows[i][k] = float64(n % 6)
				}
			}
		}
		return bins(rows...)
	}
	type input struct {
		name string
		hist []float64
		sims [][]float64
	}
	var cases []input
	add := func(name string, hist []float64, sims [][]float64) {
		cases = append(cases, input{name, hist, sims})
	}
	// {5, 5, 3}: at bound 1 the 5s run to a full buffer's end (their rank
	// is 2); at bound 2 the 3 does (its rank is 3). Three arrival orders.
	h, s := bins([]float64{4, 5, 5, 3}, []float64{5, 3, 5, 5}, []float64{6, 5, 3, 5})
	add("ties at the last slot", h, s)
	h, s = bins(
		[]float64{1, nan, nan, nan, nan},
		[]float64{nan, inf, inf, 1, nan},
		[]float64{inf, -inf, -inf, -inf, 0},
		[]float64{-inf, inf, -inf, nan, inf},
		[]float64{0, nan, 2, nan, 2},
	)
	add("NaN and infinities", h, s)
	h, s = bins([]float64{1, nan}, []float64{nan, nan})
	add("all NaN, B=1", h, s)
	for _, b := range []int{1, 2, 40, 80} {
		h, s := tieHeavy(64, b)
		add(fmt.Sprintf("tie-heavy B=%d", b), h, s)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkBoundedCounts(t, c.hist, c.sims)
			checkImplementations(t, c.hist, c.sims, thresholdsFor(len(c.sims)))
		})
	}
}

// FuzzFDRRanks decodes bytes into a histogram and B ∈ {1, 2, 40}
// simulations of small integer values (heavy ties, many zeros; 0xff is
// NaN). The kernel's counts must equal Sequential's loops at every rank
// bound, and every implementation must return Sequential's bits at the
// thresholds of thresholdsFor.
func FuzzFDRRanks(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 0, 7, 7, 1}, uint8(0))
	f.Add([]byte{0, 0xff, 3, 3, 5, 0, 0xff, 2, 2, 9, 0, 1}, uint8(1))
	f.Add(make([]byte, 41*3), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		b := []int{1, 2, 40}[int(sel)%3]
		m := len(data) / (b + 1)
		if m == 0 {
			return
		}
		value := func(x byte) float64 {
			if x == 0xff {
				return math.NaN()
			}
			return float64(x % 8)
		}
		hist := make([]float64, m)
		sims := make([][]float64, b)
		for k := range sims {
			sims[k] = make([]float64, m)
		}
		for i := 0; i < m; i++ {
			row := data[i*(b+1) : (i+1)*(b+1)]
			hist[i] = value(row[0])
			for k := range sims {
				sims[k][i] = value(row[k+1])
			}
		}
		checkBoundedCounts(t, hist, sims)
		checkImplementations(t, hist, sims, thresholdsFor(b))
	})
}
