package nlmeans

import (
	"math"
	"math/rand"
	"testing"

	"parseq/internal/mpi"
	"parseq/internal/simdata"
)

var testParams = Params{R: 10, L: 3, Sigma: 10}

func almostEqual(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9*(1+math.Abs(a[i])) {
			return i, false
		}
	}
	return 0, true
}

func identical(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// distributed runs DenoiseDistributed on ranks ranks and returns rank 0's
// result after checking every rank got the same bits.
func distributed(t *testing.T, v []float64, p Params, ranks int) ([]float64, error) {
	t.Helper()
	results := make([][]float64, ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		out, err := DenoiseDistributed(c, v, p)
		results[c.Rank()] = out
		return err
	})
	if err != nil {
		return nil, err
	}
	for r, got := range results {
		if i, ok := identical(got, results[0]); !ok {
			t.Fatalf("ranks=%d: rank %d differs from rank 0 at bin %d", ranks, r, i)
		}
	}
	return results[0], nil
}

func TestValidate(t *testing.T) {
	cases := []Params{
		{R: 0, L: 1, Sigma: 1},
		{R: 1, L: -1, Sigma: 1},
		{R: 1, L: 1, Sigma: 0},
		{R: 1, L: 1, Sigma: math.NaN()},
	}
	for _, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) succeeded", p)
		}
	}
	if err := testParams.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	if got := (Params{R: 5, L: 2}).Halo(); got != 7 {
		t.Errorf("Halo = %d, want 7", got)
	}
}

func TestDenoiseConstantSignalIsFixedPoint(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = 7.5
	}
	out, err := Denoise(v, testParams)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if math.Abs(o-7.5) > 1e-12 {
			t.Fatalf("bin %d = %g, want 7.5", i, o)
		}
	}
}

func TestDenoiseReducesNoiseVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 2000
	clean := make([]float64, n)
	noisy := make([]float64, n)
	for i := range clean {
		clean[i] = 20 + 10*math.Sin(float64(i)/50)
		noisy[i] = clean[i] + rng.NormFloat64()*3
	}
	out, err := Denoise(noisy, Params{R: 20, L: 5, Sigma: 15})
	if err != nil {
		t.Fatal(err)
	}
	mse := func(a []float64) float64 {
		s := 0.0
		for i := range a {
			d := a[i] - clean[i]
			s += d * d
		}
		return s / float64(n)
	}
	before, after := mse(noisy), mse(out)
	if after >= before {
		t.Errorf("denoising did not reduce MSE: %g → %g", before, after)
	}
	if after > before/2 {
		t.Errorf("denoising too weak: %g → %g", before, after)
	}
}

func TestDenoisePreservesMassApproximately(t *testing.T) {
	// NL-means is a weighted average: output values stay within the input
	// range.
	v := simdata.Histogram(3000, 5)
	out, err := Denoise(v, testParams)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	for i, o := range out {
		if o < lo-1e-9 || o > hi+1e-9 {
			t.Fatalf("bin %d = %g outside input range [%g, %g]", i, o, lo, hi)
		}
	}
}

func TestDenoiseParallelMatchesSequential(t *testing.T) {
	v := simdata.Histogram(5000, 9)
	want, err := Denoise(v, testParams)
	if err != nil {
		t.Fatal(err)
	}
	one, err := DenoiseParallel(v, testParams, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{1, 2, 3, 8, 16} {
		got, err := DenoiseParallel(v, testParams, cores)
		if err != nil {
			t.Fatalf("DenoiseParallel(cores=%d): %v", cores, err)
		}
		if i, ok := almostEqual(got, want); !ok {
			t.Errorf("cores=%d differs at bin %d: %g vs %g", cores, i, got[i], want[i])
		}
		if i, ok := identical(got, one); !ok {
			t.Errorf("cores=%d not bit-identical to cores=1 at bin %d: %v vs %v", cores, i, got[i], one[i])
		}
	}
	// cores < 1 normalises to sequential.
	got, err := DenoiseParallel(v, testParams, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := almostEqual(got, want); !ok {
		t.Error("cores=0 differs from sequential")
	}
}

func TestDenoiseDistributedMatchesSequential(t *testing.T) {
	v := simdata.Histogram(4000, 13)
	want, err := Denoise(v, testParams)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 4, 7} {
		results := make([][]float64, ranks)
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			out, err := DenoiseDistributed(c, v, testParams)
			if err != nil {
				return err
			}
			results[c.Rank()] = out
			return nil
		})
		if err != nil {
			t.Fatalf("DenoiseDistributed(ranks=%d): %v", ranks, err)
		}
		for r, got := range results {
			if i, ok := almostEqual(got, want); !ok {
				t.Errorf("ranks=%d rank %d differs at bin %d: %g vs %g",
					ranks, r, i, got[i], want[i])
			}
		}
	}
}

func TestDenoiseDistributedRejectsNarrowPartitions(t *testing.T) {
	v := simdata.Histogram(50, 1) // 50 bins, halo 13, 8 ranks → 6-bin parts
	err := mpi.Run(8, func(c *mpi.Comm) error {
		_, err := DenoiseDistributed(c, v, testParams)
		return err
	})
	if err == nil {
		t.Error("narrow partitions accepted")
	}
}

func TestDenoiseErrorsPropagate(t *testing.T) {
	if _, err := Denoise(nil, Params{}); err == nil {
		t.Error("invalid params accepted by Denoise")
	}
	if _, err := DenoiseParallel(nil, Params{}, 2); err == nil {
		t.Error("invalid params accepted by DenoiseParallel")
	}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		_, err := DenoiseDistributed(c, []float64{1, 2}, Params{})
		return err
	})
	if err == nil {
		t.Error("invalid params accepted by DenoiseDistributed")
	}
}

func TestDenoiseEmptyInput(t *testing.T) {
	out, err := Denoise(nil, testParams)
	if err != nil || len(out) != 0 {
		t.Errorf("Denoise(nil) = %v, %v", out, err)
	}
	if got, err := DenoiseParallel(nil, testParams, 4); err != nil || len(got) != 0 {
		t.Errorf("DenoiseParallel(nil) = %v, %v", got, err)
	}
	for _, ranks := range []int{1, 3} {
		got, err := distributed(t, nil, testParams, ranks)
		if err != nil || len(got) != 0 {
			t.Errorf("DenoiseDistributed(nil, ranks=%d) = %v, %v", ranks, got, err)
		}
	}
	// More cores than bins.
	v := []float64{3, 1, 4}
	want, _ := Denoise(v, testParams)
	got, err := DenoiseParallel(v, testParams, 16)
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := identical(got, want); !ok {
		t.Errorf("3 bins on 16 cores differ at bin %d", i)
	}
}

func TestPackUnpackFloat64s(t *testing.T) {
	want := []float64{0, -1.5, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	got := unpackFloat64s(packFloat64s(want))
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("v[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestSlidingWindowEdgeCases holds the sliding-window kernels to the
// direct reference on inputs built to break them: cancellation after
// spikes, exact zeros in constant runs, histograms with no or one
// interior bin, and the smallest window. DenoiseParallel must give the
// same bits at every core count and DenoiseDistributed must stay within
// 1e-12 of it (the same bits on one rank) wherever its partitions are
// wide enough for the halo.
func TestSlidingWindowEdgeCases(t *testing.T) {
	spikes := simdata.Histogram(3000, 17)
	for _, i := range []int{100, 101, 700, 1500, 1530, 2999} {
		spikes[i] = 1e6
	}
	runs := simdata.Histogram(3000, 19)
	for i := 500; i < 1400; i++ {
		runs[i] = 0
	}
	for i := 2000; i < 2600; i++ {
		runs[i] = 42.5
	}
	tiny := Params{R: 1, L: 0, Sigma: 2}
	for _, c := range []struct {
		name string
		v    []float64
		p    Params
	}{
		{"spikes to 1e6", spikes, testParams},
		{"spikes to 1e6, wide sigma", spikes, Params{R: 20, L: 15, Sigma: 1e5}},
		{"constant runs", runs, testParams},
		{"N < 2(R+L)", simdata.Histogram(2*testParams.Halo()-1, 23), testParams},
		{"N = 2(R+L)+1", simdata.Histogram(2*testParams.Halo()+1, 29), testParams},
		{"R=1 L=0", simdata.Histogram(1000, 31), tiny},
		{"R=1 L=0 spikes", spikes, tiny},
	} {
		want, err := Denoise(c.v, c.p)
		if err != nil {
			t.Fatal(err)
		}
		par, err := DenoiseParallel(c.v, c.p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := almostEqual(par, want); !ok {
			t.Errorf("%s: differs from Denoise at bin %d: %v vs %v", c.name, i, par[i], want[i])
		}
		for _, cores := range []int{2, 3, 8, 16} {
			got, err := DenoiseParallel(c.v, c.p, cores)
			if err != nil {
				t.Fatal(err)
			}
			if i, ok := identical(got, par); !ok {
				t.Errorf("%s: cores=%d differs from cores=1 at bin %d: %v vs %v", c.name, cores, i, got[i], par[i])
			}
		}
		for _, ranks := range []int{1, 2, 3, 5} {
			got, err := distributed(t, c.v, c.p, ranks)
			if ranks > 1 && len(c.v)/ranks < c.p.Halo() {
				if err == nil {
					t.Errorf("%s: ranks=%d accepted partitions narrower than the halo", c.name, ranks)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: ranks=%d: %v", c.name, ranks, err)
			}
			if ranks == 1 {
				if i, ok := identical(got, par); !ok {
					t.Errorf("%s: one rank differs from DenoiseParallel at bin %d", c.name, i)
				}
				continue
			}
			for i := range got {
				if math.Abs(got[i]-par[i]) > 1e-12*(1+math.Abs(par[i])) {
					t.Errorf("%s: ranks=%d bin %d: %v vs parallel %v", c.name, ranks, i, got[i], par[i])
					break
				}
			}
		}
	}
}

// FuzzDenoise decodes bytes into a histogram (0xff is a spike to 1e6)
// and small parameters: the sliding-window kernel must stay within 1e-9
// of Denoise and give the same bits on one core and three.
func FuzzDenoise(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(3), uint8(2), uint8(10))
	f.Add(make([]byte, 64), uint8(1), uint8(0), uint8(1))
	f.Add([]byte{0, 0xff, 9, 9, 9, 9, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(2), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, r, l, sigma uint8) {
		if len(data) > 4096 {
			return
		}
		v := make([]float64, len(data))
		for i, x := range data {
			v[i] = float64(x) / 4
			if x == 0xff {
				v[i] = 1e6
			}
		}
		p := Params{R: 1 + int(r%12), L: int(l % 8), Sigma: 0.5 + float64(sigma)/4}
		want, err := Denoise(v, p)
		if err != nil {
			t.Fatal(err)
		}
		one, err := DenoiseParallel(v, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := almostEqual(one, want); !ok {
			t.Fatalf("%+v: bin %d is %v, Denoise %v", p, i, one[i], want[i])
		}
		three, err := DenoiseParallel(v, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := identical(three, one); !ok {
			t.Fatalf("%+v: 3 cores differ from 1 at bin %d: %v vs %v", p, i, three[i], one[i])
		}
	})
}
