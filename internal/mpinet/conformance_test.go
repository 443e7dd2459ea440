package mpinet_test

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"parseq/internal/mpi"
	"parseq/internal/mpinet"
)

// runTCPWorld forms a real loopback TCP world of `size` single-rank
// processes-worth of goroutines — each rank performs the full
// rendezvous over 127.0.0.1 sockets — runs fn on every rank, and
// aggregates errors exactly as mpi.Run does: the first non-ErrAborted
// error wins, then the first error.
func runTCPWorld(size int, fn func(*mpi.Comm) error) error {
	coord := freeLoopbackAddr()
	errs := make([]error, size)
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(rank int) {
			defer wg.Done()
			w, err := mpinet.Connect(mpinet.Config{
				Rank:        rank,
				World:       size,
				Coord:       coord,
				DialTimeout: 10 * time.Second,
				JoinTimeout: 30 * time.Second,
				WaitTimeout: 30 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			defer w.Close()
			errs[rank] = mpi.RunTransport(w, fn)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, mpi.ErrAborted) {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// freeLoopbackAddr reserves a loopback port and frees it for the world
// to claim; workers dial with retry, so only rank 0's bind races, and a
// just-released port is not immediately reassigned by the kernel.
func freeLoopbackAddr() string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// transports is the conformance surface: every case below must behave
// identically on the in-process channel world and the TCP world.
var transports = []struct {
	name string
	run  func(size int, fn func(*mpi.Comm) error) error
}{
	{"inproc", mpi.Run},
	{"tcp", runTCPWorld},
}

func TestConformanceSendRecvRing(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			t.Parallel()
			const size = 4
			err := tr.run(size, func(c *mpi.Comm) error {
				next := (c.Rank() + 1) % size
				prev := (c.Rank() + size - 1) % size
				if err := c.Send(next, 7, []byte{byte(c.Rank()), 0xaa}); err != nil {
					return err
				}
				got, err := c.Recv(prev, 7)
				if err != nil {
					return err
				}
				if len(got) != 2 || got[0] != byte(prev) || got[1] != 0xaa {
					return fmt.Errorf("rank %d received %v from %d", c.Rank(), got, prev)
				}
				return c.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConformanceScatter(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			t.Parallel()
			const size = 4
			err := tr.run(size, func(c *mpi.Comm) error {
				var parts [][]byte
				if c.Rank() == 0 {
					for r := 0; r < size; r++ {
						parts = append(parts, []byte(fmt.Sprintf("part-%d", r)))
					}
				}
				mine, err := c.Scatter(0, parts)
				if err != nil {
					return err
				}
				want := fmt.Sprintf("part-%d", c.Rank())
				if string(mine) != want {
					return fmt.Errorf("rank %d scattered %q, want %q", c.Rank(), mine, want)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConformanceFloat64s(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			t.Parallel()
			const size = 3
			err := tr.run(size, func(c *mpi.Comm) error {
				if c.Rank() != 0 {
					vs := []float64{float64(c.Rank()), float64(c.Rank()) * 0.5, -1}
					return mpi.SendSlice(c, 0, 11, vs)
				}
				for r := 1; r < size; r++ {
					vs, err := mpi.RecvSlice[float64](c, r, 11)
					if err != nil {
						return err
					}
					if len(vs) != 3 || vs[0] != float64(r) || vs[1] != float64(r)*0.5 || vs[2] != -1 {
						return fmt.Errorf("rank 0 received %v from %d", vs, r)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Payloads whose bits an arithmetic round trip or a text codec would
// lose: −0, NaN payloads of both signs, ±Inf and the int64 extremes.
var (
	oddFloats = []float64{
		math.Copysign(0, -1),
		math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0xfff8dead0000beef),
		math.Inf(1),
		math.Inf(-1),
	}
	oddInts = []int64{math.MinInt64, -1, math.MaxInt64}
)

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// reduceOrderTerms are four addends whose float64 sum depends on the
// order they are added in, so a ReduceSum that added root's own
// contribution first, or ranks in reverse, gives different bits.
var reduceOrderTerms = []float64{0.1, 0.2, 0.3, 1e-16}

func TestConformanceCollectives(t *testing.T) {
	fold := func(order ...int) float64 {
		s := 0.0
		for _, r := range order {
			s += reduceOrderTerms[r]
		}
		return s
	}
	inRankOrder := fold(0, 1, 2, 3)
	if inRankOrder == fold(3, 0, 1, 2) || inRankOrder == fold(3, 2, 1, 0) {
		t.Fatal("reduceOrderTerms do not tell the addition orders apart")
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			t.Parallel()
			const size = 4
			err := tr.run(size, func(c *mpi.Comm) error {
				// Bcast then Gather then AllreduceSum, with barriers between.
				got, err := c.Bcast(0, []byte("seed"))
				if err != nil {
					return err
				}
				if string(got) != "seed" {
					return fmt.Errorf("rank %d broadcast %q", c.Rank(), got)
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				parts, err := c.Gather(0, []byte{byte(c.Rank() * 3)})
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					for r, p := range parts {
						if len(p) != 1 || p[0] != byte(r*3) {
							return fmt.Errorf("gathered %v from rank %d", p, r)
						}
					}
				}
				sum, err := mpi.AllreduceSum(c, []int64{int64(c.Rank() + 1)})
				if err != nil {
					return err
				}
				if want := int64(size * (size + 1) / 2); len(sum) != 1 || sum[0] != want {
					return fmt.Errorf("rank %d allreduce sum %v, want [%d]", c.Rank(), sum, want)
				}

				// SendSlice/RecvSlice round a ring with every odd bit pattern.
				next, prev := (c.Rank()+1)%size, (c.Rank()+size-1)%size
				if err := mpi.SendSlice(c, next, 21, oddFloats); err != nil {
					return err
				}
				if err := mpi.SendSlice(c, next, 22, oddInts); err != nil {
					return err
				}
				fs, err := mpi.RecvSlice[float64](c, prev, 21)
				if err != nil {
					return err
				}
				is, err := mpi.RecvSlice[int64](c, prev, 22)
				if err != nil {
					return err
				}
				if !sameBits(fs, oddFloats) || fmt.Sprint(is) != fmt.Sprint(oddInts) {
					return fmt.Errorf("rank %d received %v and %v", c.Rank(), fs, is)
				}

				// Allgather concatenates in rank order; rank r adds r
				// values, so rank 0's empty slice is a case too.
				all, err := mpi.Allgather(c, oddFloats[:c.Rank()])
				if err != nil {
					return err
				}
				var want []float64
				for r := 0; r < size; r++ {
					want = append(want, oddFloats[:r]...)
				}
				if !sameBits(all, want) {
					return fmt.Errorf("rank %d allgathered %v, want %v", c.Rank(), all, want)
				}

				// ReduceSum adds in rank order, root's own term included.
				const root = 3
				red, err := mpi.ReduceSum(c, root, []float64{reduceOrderTerms[c.Rank()]})
				if err != nil {
					return err
				}
				if c.Rank() == root && (len(red) != 1 || math.Float64bits(red[0]) != math.Float64bits(inRankOrder)) {
					return fmt.Errorf("reduce sum %v, want [%v] (rank order)", red, inRankOrder)
				}
				return c.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}

			// A contribution of the wrong length is root's error, not a panic.
			err = tr.run(size, func(c *mpi.Comm) error {
				n := 2
				if c.Rank() == 2 {
					n = 3
				}
				_, err := mpi.ReduceSum(c, 0, make([]int64, n))
				return err
			})
			if want := "mpi: rank 2 contributed 3 values to a sum of 2"; err == nil || err.Error() != want {
				t.Fatalf("mismatched ReduceSum: world error = %v, want %q", err, want)
			}
		})
	}
}

func TestConformanceSelfSend(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			t.Parallel()
			err := tr.run(2, func(c *mpi.Comm) error {
				if err := c.Send(c.Rank(), 5, []byte{byte(c.Rank())}); err != nil {
					return err
				}
				got, err := c.Recv(c.Rank(), 5)
				if err != nil {
					return err
				}
				if len(got) != 1 || got[0] != byte(c.Rank()) {
					return fmt.Errorf("rank %d self-received %v", c.Rank(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConformanceAbortMidGather fails one rank before it contributes to
// a Gather: the root must drain with ErrAborted and the world must
// report the original error.
func TestConformanceAbortMidGather(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			t.Parallel()
			const size = 4
			boom := errors.New("rank failure mid-collective")
			err := tr.run(size, func(c *mpi.Comm) error {
				if c.Rank() == size-1 {
					return boom // never contributes to the gather
				}
				_, err := c.Gather(0, []byte{1})
				if c.Rank() == 0 {
					// Root blocks on the dead rank's contribution and must
					// unwind with ErrAborted, not hang or succeed.
					if !errors.Is(err, mpi.ErrAborted) {
						return fmt.Errorf("root gather error = %v, want ErrAborted", err)
					}
				}
				return err
			})
			if !errors.Is(err, boom) {
				t.Fatalf("world error = %v, want the failing rank's error", err)
			}
		})
	}
}

// TestConformanceAbortMidBarrier fails rank 0 while the rest sit in a
// barrier; every parked rank must unwind with ErrAborted.
func TestConformanceAbortMidBarrier(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			t.Parallel()
			const size = 3
			boom := errors.New("root failure before barrier")
			err := tr.run(size, func(c *mpi.Comm) error {
				if c.Rank() == 0 {
					return boom
				}
				err := c.Barrier()
				if !errors.Is(err, mpi.ErrAborted) {
					return fmt.Errorf("rank %d barrier error = %v, want ErrAborted", c.Rank(), err)
				}
				return err
			})
			if !errors.Is(err, boom) {
				t.Fatalf("world error = %v, want the failing rank's error", err)
			}
		})
	}
}

// TestConformancePanicAborts panics one rank; both transports must turn
// it into an error world-wide rather than crash the process.
func TestConformancePanicAborts(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			t.Parallel()
			err := tr.run(2, func(c *mpi.Comm) error {
				if c.Rank() == 1 {
					panic("deliberate test panic")
				}
				_, err := c.Recv(1, 3)
				return err
			})
			if err == nil || errors.Is(err, mpi.ErrAborted) {
				t.Fatalf("world error = %v, want the panic error", err)
			}
		})
	}
}

// TestTCPSequentialWorldRuns launches two rank functions back to back
// over one TCP world — the converter pipelines do exactly this
// (preprocess world, then convert worlds) — exercising barrier
// generation continuity across runs.
func TestTCPSequentialWorldRuns(t *testing.T) {
	t.Parallel()
	const size = 3
	coord := freeLoopbackAddr()
	errs := make([]error, size)
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(rank int) {
			defer wg.Done()
			w, err := mpinet.Connect(mpinet.Config{
				Rank: rank, World: size, Coord: coord,
				DialTimeout: 10 * time.Second,
				JoinTimeout: 30 * time.Second,
				WaitTimeout: 30 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			defer w.Close()
			launch := w.Launcher()
			for round := 0; round < 3; round++ {
				err := launch(size, func(c *mpi.Comm) error {
					if err := c.Barrier(); err != nil {
						return err
					}
					sum, err := mpi.AllreduceSum(c, []int64{int64(c.Rank())})
					if err != nil {
						return err
					}
					if want := int64(size * (size - 1) / 2); sum[0] != want {
						return fmt.Errorf("round %d sum %d, want %d", round, sum[0], want)
					}
					return c.Barrier()
				})
				if err != nil {
					errs[rank] = err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestTCPLauncherSizeMismatch: a world launcher must refuse a rank
// count other than the world's.
func TestTCPLauncherSizeMismatch(t *testing.T) {
	t.Parallel()
	w, err := mpinet.Connect(mpinet.Config{Rank: 0, World: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Launcher()(2, func(*mpi.Comm) error { return nil }); err == nil {
		t.Fatal("launcher accepted a mismatched world size")
	}
}

func TestConnectValidation(t *testing.T) {
	t.Parallel()
	bad := []mpinet.Config{
		{Rank: 0, World: 0},
		{Rank: 2, World: 2, Coord: "127.0.0.1:1"},
		{Rank: -1, World: 2, Coord: "127.0.0.1:1"},
		{Rank: 0, World: 2}, // no coordinator
	}
	for _, cfg := range bad {
		if _, err := mpinet.Connect(cfg); err == nil {
			t.Errorf("Connect(%+v) accepted an invalid config", cfg)
		}
	}
}
