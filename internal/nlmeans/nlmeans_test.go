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
	for _, cores := range []int{1, 2, 3, 8, 16} {
		got, err := DenoiseParallel(v, testParams, cores)
		if err != nil {
			t.Fatalf("DenoiseParallel(cores=%d): %v", cores, err)
		}
		if i, ok := almostEqual(got, want); !ok {
			t.Errorf("cores=%d differs at bin %d: %g vs %g", cores, i, got[i], want[i])
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
