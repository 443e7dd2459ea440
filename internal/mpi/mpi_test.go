package mpi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRunRankAndSize(t *testing.T) {
	var seen [8]int32
	err := Run(8, func(c *Comm) error {
		if c.Size() != 8 {
			return fmt.Errorf("Size = %d", c.Size())
		}
		atomic.AddInt32(&seen[c.Rank()], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, n := range seen {
		if n != 1 {
			t.Errorf("rank %d ran %d times", r, n)
		}
	}
}

// RunRoot hands back rank 0's value, whatever the launcher, and the
// world's error when any rank fails.
func TestRunRoot(t *testing.T) {
	for _, launch := range []Launcher{nil, Run} {
		got, err := RunRoot(launch, 3, func(c *Comm) (int, error) { return 10 + c.Rank(), nil })
		if err != nil || got != 10 {
			t.Errorf("RunRoot = %d, %v; want rank 0's 10", got, err)
		}
	}
	boom := errors.New("boom")
	_, err := RunRoot(nil, 2, func(c *Comm) (int, error) {
		if c.Rank() == 1 {
			return 0, boom
		}
		return 1, c.Barrier()
	})
	if !errors.Is(err, boom) {
		t.Errorf("RunRoot error = %v, want rank 1's", err)
	}
}

func TestRunRejectsBadSize(t *testing.T) {
	if err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Error("Run(0) succeeded")
	}
}

func TestSendRecv(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("ping"))
		}
		d, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(d) != "ping" {
			return fmt.Errorf("got %q", d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvOrdering(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 100; i++ {
				if err := SendSlice(c, 1, 0, []int64{int64(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 100; i++ {
			v, err := RecvSlice[int64](c, 0, 0)
			if err != nil {
				return err
			}
			if len(v) != 1 || v[0] != int64(i) {
				return fmt.Errorf("message %d arrived as %v", i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesData(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte("original")
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			copy(buf, "CLOBBER!")
			return nil
		}
		d, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if string(d) != "original" {
			return fmt.Errorf("received %q — sender buffer was aliased", d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvInvalidRank(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if err := c.Send(5, 0, nil); err == nil {
			return errors.New("Send to rank 5 succeeded")
		}
		if _, err := c.Recv(-1, 0); err == nil {
			return errors.New("Recv from rank -1 succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMismatch(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, []byte("x"))
		}
		_, err := c.Recv(0, 2)
		if err == nil {
			return errors.New("tag mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 8
	var phase1 int32
	err := Run(n, func(c *Comm) error {
		atomic.AddInt32(&phase1, 1)
		if err := c.Barrier(); err != nil {
			return err
		}
		if got := atomic.LoadInt32(&phase1); got != n {
			return fmt.Errorf("rank %d passed barrier with %d/%d arrivals", c.Rank(), got, n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReusable(t *testing.T) {
	var counter int32
	err := Run(4, func(c *Comm) error {
		for round := 1; round <= 10; round++ {
			atomic.AddInt32(&counter, 1)
			if err := c.Barrier(); err != nil {
				return err
			}
			if got := atomic.LoadInt32(&counter); got != int32(4*round) {
				return fmt.Errorf("round %d: counter = %d", round, got)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		var data []byte
		if c.Rank() == 2 {
			data = []byte("from root")
		}
		got, err := c.Bcast(2, data)
		if err != nil {
			return err
		}
		if string(got) != "from root" {
			return fmt.Errorf("rank %d got %q", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		data := []byte{byte(c.Rank() * 10)}
		all, err := c.Gather(0, data)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			if all != nil {
				return errors.New("non-root got gather data")
			}
			return nil
		}
		for r := 0; r < 6; r++ {
			if len(all[r]) != 1 || all[r][0] != byte(r*10) {
				return fmt.Errorf("gathered[%d] = %v", r, all[r])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatter(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		var parts [][]byte
		if c.Rank() == 0 {
			for r := 0; r < 4; r++ {
				parts = append(parts, []byte{byte(r + 1)})
			}
		}
		mine, err := c.Scatter(0, parts)
		if err != nil {
			return err
		}
		if len(mine) != 1 || mine[0] != byte(c.Rank()+1) {
			return fmt.Errorf("rank %d got %v", c.Rank(), mine)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterWrongPartCount(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		_, err := c.Scatter(0, [][]byte{{1}, {2}})
		if err == nil {
			return errors.New("Scatter with wrong part count succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSums(t *testing.T) {
	err := Run(7, func(c *Comm) error {
		got, err := ReduceSum(c, 3, []int64{int64(c.Rank()), 1})
		if err != nil {
			return err
		}
		if c.Rank() == 3 && (len(got) != 2 || got[0] != 21 || got[1] != 7) {
			return fmt.Errorf("int sum = %v, want [21 7]", got)
		}
		if c.Rank() != 3 && got != nil {
			return fmt.Errorf("non-root rank %d received %v", c.Rank(), got)
		}
		f, err := ReduceSum(c, 0, []float64{0.5})
		if err != nil {
			return err
		}
		if c.Rank() == 0 && f[0] != 3.5 {
			return fmt.Errorf("float sum = %g, want 3.5", f[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduce(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		got, err := AllreduceSum(c, []int64{2, int64(c.Rank())})
		if err != nil {
			return err
		}
		if len(got) != 2 || got[0] != 10 || got[1] != 10 {
			return fmt.Errorf("rank %d allreduce = %v, want [10 10]", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFloat64sRoundTrip(t *testing.T) {
	want := []float64{1.5, -2.25, 0, 1e300}
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return SendSlice(c, 1, 0, want)
		}
		got, err := RecvSlice[float64](c, 0, 0)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("len = %d", len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("got[%d] = %g", i, got[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNumericCodecAllocations: a float64 slice crosses the wire format
// with a few allocations (the two buffers; the race runtime may add
// one), not one per element behind the type switch.
func TestNumericCodecAllocations(t *testing.T) {
	vs := make([]float64, 64<<10)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := decode[float64](encode(vs)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("encode+decode of %d floats: %.0f allocations, want at most 3", len(vs), allocs)
	}
}

func TestErrorAbortsWorld(t *testing.T) {
	sentinel := errors.New("rank 1 failed")
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		// These ranks would deadlock in Barrier without abort handling.
		return c.Barrier()
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
}

func TestPanicAbortsWorld(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 0 {
			panic("boom")
		}
		_, err := c.Recv(0, 0) // would block forever without abort
		return err
	})
	if err == nil || !contains(err.Error(), "panicked") {
		t.Errorf("err = %v, want panic report", err)
	}
}

func TestRecvBlockedOnAbortedWorld(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return errors.New("fail fast")
		}
		_, err := c.Recv(0, 0)
		if !errors.Is(err, ErrAborted) {
			return fmt.Errorf("Recv err = %v, want ErrAborted", err)
		}
		return err // propagate ErrAborted; Run must prefer the real error
	})
	if err == nil || err.Error() != "fail fast" {
		t.Errorf("err = %v, want the originating error", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		})())
}

func TestSplitRangeProperties(t *testing.T) {
	f := func(n uint16, size uint8) bool {
		s := int(size%64) + 1
		total := int(n)
		prevHi := 0
		count := 0
		for r := 0; r < s; r++ {
			lo, hi := SplitRange(total, s, r)
			if lo != prevHi { // contiguous, in order, no gaps
				return false
			}
			if hi < lo {
				return false
			}
			if hi-lo > total/s+1 || (total >= s && hi-lo < total/s) {
				return false // balanced within one item
			}
			count += hi - lo
			prevHi = hi
		}
		return count == total && prevHi == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitRangeDegenerate(t *testing.T) {
	if lo, hi := SplitRange(0, 4, 2); lo != 0 || hi != 0 {
		t.Errorf("SplitRange(0,4,2) = %d,%d", lo, hi)
	}
	if lo, hi := SplitRange(10, 0, 0); lo != 0 || hi != 0 {
		t.Errorf("SplitRange(10,0,0) = %d,%d", lo, hi)
	}
	// More ranks than items: first items go to first ranks.
	if lo, hi := SplitRange(2, 4, 0); lo != 0 || hi != 1 {
		t.Errorf("SplitRange(2,4,0) = %d,%d", lo, hi)
	}
	if lo, hi := SplitRange(2, 4, 3); lo != 2 || hi != 2 {
		t.Errorf("SplitRange(2,4,3) = %d,%d", lo, hi)
	}
}
