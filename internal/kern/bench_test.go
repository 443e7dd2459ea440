package kern

import (
	"math/rand"
	"testing"
	"time"
)

func benchPacked(n int) []byte {
	rng := rand.New(rand.NewSource(11))
	p := make([]byte, (n+1)/2)
	for i := range p {
		p[i] = byte(rng.Intn(256))
	}
	return p
}

func benchQual(n int) []byte {
	rng := rand.New(rand.NewSource(12))
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(rng.Intn(94))
	}
	return p
}

// Kept: bench/ probes the exported kernels (kern.*_mb_s) but cannot reach
// the unexported scalar twins, so this scalar-vs-SWAR ratio has no probe.
//
// BenchmarkKernSpeedup is the paired before/after contract for the two
// acceptance kernels: each iteration runs one scalar batch and one
// kernel batch back-to-back, per-side minima absorb machine weather,
// and the ratio lands in the "speedup" metric (target ≥ 1.5 for both,
// per ISSUE 6). The batch repeats the op enough times that timer
// granularity cannot swamp a microsecond-scale kernel.
func BenchmarkKernSpeedup(b *testing.B) {
	const n, reps = 4096, 64
	b.Run("unpack/n=4096", func(b *testing.B) {
		src, dst := benchPacked(n), make([]byte, n)
		minScalar, minKern := time.Duration(1<<62), time.Duration(1<<62)
		b.SetBytes(int64(n) * reps)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			for r := 0; r < reps; r++ {
				unpackSeqScalar(dst, src, n)
			}
			t1 := time.Now()
			for r := 0; r < reps; r++ {
				UnpackSeq(dst, src, n)
			}
			if d := t1.Sub(t0); d < minScalar {
				minScalar = d
			}
			if d := time.Since(t1); d < minKern {
				minKern = d
			}
		}
		b.ReportMetric(float64(minScalar)/float64(minKern), "speedup")
	})
	b.Run("qualshift/n=4096", func(b *testing.B) {
		src, dst := benchQual(n), make([]byte, n)
		minScalar, minKern := time.Duration(1<<62), time.Duration(1<<62)
		b.SetBytes(int64(n) * reps)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			for r := 0; r < reps; r++ {
				addConstScalar(dst, src, 33)
			}
			t1 := time.Now()
			for r := 0; r < reps; r++ {
				AddConst(dst, src, 33)
			}
			if d := t1.Sub(t0); d < minScalar {
				minScalar = d
			}
			if d := time.Since(t1); d < minKern {
				minKern = d
			}
		}
		b.ReportMetric(float64(minScalar)/float64(minKern), "speedup")
	})
}
