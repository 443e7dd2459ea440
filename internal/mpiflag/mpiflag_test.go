package mpiflag

import (
	"flag"
	"net"
	"sync"
	"testing"
	"time"

	"parseq/internal/mpi"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestInprocDefaults(t *testing.T) {
	s, err := parse(t).Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Distributed() {
		t.Error("default session claims to be distributed")
	}
	if s.Rank() != 0 {
		t.Errorf("Rank() = %d", s.Rank())
	}
	if s.Ranks(5) != 5 {
		t.Errorf("Ranks(5) = %d", s.Ranks(5))
	}
	if s.Launcher() != nil {
		t.Error("in-process session must hand back a nil launcher (= mpi.Run)")
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestConnectValidation(t *testing.T) {
	cases := [][]string{
		{"-transport", "carrier-pigeon"},
		{"-transport", "tcp"},                // no -world
		{"-world", "2"},                      // -world without tcp
		{"-coord", "host:1"},                 // -coord without tcp
		{"-transport", "tcp", "-world", "2"}, // tcp without -coord
		{"-transport", "tcp", "-world", "2", "-rank", "2", "-coord", "h:1"}, // rank out of range
	}
	for _, args := range cases {
		if _, err := parse(t, args...).Connect(); err == nil {
			t.Errorf("Connect(%v) accepted an invalid flag set", args)
		}
	}
}

// TestTCPSessionRoundTrip forms a two-rank loopback world through the
// flag surface and runs a collective over the session launcher — the
// exact path the CLIs take.
func TestTCPSessionRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := ln.Addr().String()
	ln.Close()

	const world = 2
	errs := make([]error, world)
	sums := make([]int64, world)
	var wg sync.WaitGroup
	wg.Add(world)
	for r := 0; r < world; r++ {
		go func(rank int) {
			defer wg.Done()
			f := parse(t, "-transport", "tcp",
				"-world", "2", "-rank", map[int]string{0: "0", 1: "1"}[rank],
				"-coord", coord)
			s, err := f.Connect()
			if err != nil {
				errs[rank] = err
				return
			}
			defer s.Close()
			if !s.Distributed() || s.Rank() != rank || s.Ranks(99) != world {
				t.Errorf("rank %d session: distributed=%v rank=%d ranks=%d",
					rank, s.Distributed(), s.Rank(), s.Ranks(99))
			}
			errs[rank] = s.Launcher()(world, func(c *mpi.Comm) error {
				sum, err := mpi.AllreduceSum(c, []int64{int64(c.Rank() + 10)})
				if err != nil {
					return err
				}
				sums[rank] = sum[0]
				return c.Barrier()
			})
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("tcp session round trip timed out")
	}
	for r := 0; r < world; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if sums[r] != 21 {
			t.Errorf("rank %d allreduce sum = %d, want 21", r, sums[r])
		}
	}
}
