// Package mpi is a message-passing runtime standing in for the MPI
// library the paper's C++ implementation uses. Point-to-point sends,
// barriers and collectives mirror the MPI calls the paper's Algorithms
// 1 and 2 are written against, so every parallel algorithm in this
// repository reads like its published pseudocode.
//
// The runtime is split in two layers. Comm implements every collective
// and the telemetry against the small Transport interface
// (transport.go); int64 and float64 slices cross ranks one way, through
// SendSlice, RecvSlice, ReduceSum, AllreduceSum and Allgather. The
// default transport runs ranks as goroutines over in-process channels
// (Run); internal/mpinet implements the same interface over TCP so
// unchanged rank code spans processes and hosts — the paper's 32-node
// deployment.
//
// The runtime is deterministic where the paper's algorithms need it to
// be: collectives combine contributions in rank order, so floating-point
// reductions are reproducible run to run.
package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"parseq/internal/obs"
)

// ErrAborted is returned from communication calls after any rank in the
// world has failed, so sibling ranks blocked in collectives unwind
// instead of deadlocking.
var ErrAborted = errors.New("mpi: world aborted")

// rankObs carries one rank's communication counters in the process-wide
// obs registry: the time a rank spends blocked in Send/Recv/Barrier is
// the paper's compute-vs-communication split, and the grand total
// surfaces as mpi.wait_ns in the -metrics export. Counters are memoised
// by name, so repeated worlds accumulate into the same series.
type rankObs struct {
	sendWait    *obs.Counter // mpi.rank<r>.send_wait_ns
	recvWait    *obs.Counter // mpi.rank<r>.recv_wait_ns
	barrierWait *obs.Counter // mpi.rank<r>.barrier_wait_ns
	sends       *obs.Counter
	recvs       *obs.Counter
	barriers    *obs.Counter
	bytes       *obs.Counter // payload bytes sent by rank
	waitNS      *obs.Counter // mpi.wait_ns, all ranks, all calls
}

func newRankObs(reg *obs.Registry, rank int) *rankObs {
	prefix := fmt.Sprintf("mpi.rank%d.", rank)
	return &rankObs{
		sendWait:    reg.Counter(prefix + "send_wait_ns"),
		recvWait:    reg.Counter(prefix + "recv_wait_ns"),
		barrierWait: reg.Counter(prefix + "barrier_wait_ns"),
		sends:       reg.Counter(prefix + "sends"),
		recvs:       reg.Counter(prefix + "recvs"),
		barriers:    reg.Counter(prefix + "barriers"),
		bytes:       reg.Counter(prefix + "send_bytes"),
		waitNS:      reg.Counter("mpi.wait_ns"),
	}
}

// Comm is one rank's handle on the world.
type Comm struct {
	t   Transport
	obs *rankObs // nil when telemetry is disabled
}

// NewComm wraps a transport in a Comm, attaching telemetry from the
// default obs registry when one is installed.
func NewComm(t Transport) *Comm {
	c := &Comm{t: t}
	if reg := obs.Default(); reg != nil {
		c.obs = newRankObs(reg, t.Rank())
	}
	return c
}

// Rank returns this rank's index in [0, Size).
func (c *Comm) Rank() int { return c.t.Rank() }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.t.Size() }

// Transport returns the transport underneath this Comm.
func (c *Comm) Transport() Transport { return c.t }

// Send delivers data to rank `to` with a tag. The data is copied, so the
// caller may reuse the slice.
func (c *Comm) Send(to, tag int, data []byte) error {
	if to < 0 || to >= c.t.Size() {
		return fmt.Errorf("mpi: Send to invalid rank %d", to)
	}
	if o := c.obs; o != nil {
		o.sends.Add(1)
		o.bytes.Add(int64(len(data)))
		start := time.Now()
		defer func() {
			wait := time.Since(start).Nanoseconds()
			o.sendWait.Add(wait)
			o.waitNS.Add(wait)
		}()
	}
	return c.t.Send(to, tag, data)
}

// Recv receives the next message from rank `from`, which must carry the
// expected tag. Messages from one sender arrive in send order.
func (c *Comm) Recv(from, tag int) ([]byte, error) {
	if from < 0 || from >= c.t.Size() {
		return nil, fmt.Errorf("mpi: Recv from invalid rank %d", from)
	}
	if o := c.obs; o != nil {
		o.recvs.Add(1)
		start := time.Now()
		defer func() {
			wait := time.Since(start).Nanoseconds()
			o.recvWait.Add(wait)
			o.waitNS.Add(wait)
		}()
	}
	got, data, err := c.t.Recv(from)
	if err != nil {
		return nil, err
	}
	if got != tag {
		return nil, fmt.Errorf("mpi: rank %d expected tag %d from %d, got %d",
			c.t.Rank(), tag, from, got)
	}
	return data, nil
}

// Barrier blocks until every rank has entered it. It matches the paper's
// "set a global barrier" steps (Algorithm 1 line 16, Algorithm 2 line 4).
func (c *Comm) Barrier() error {
	if o := c.obs; o != nil {
		o.barriers.Add(1)
		start := time.Now()
		defer func() {
			wait := time.Since(start).Nanoseconds()
			o.barrierWait.Add(wait)
			o.waitNS.Add(wait)
		}()
	}
	return c.t.Barrier()
}

// Bcast distributes root's data to every rank. All ranks pass their own
// data argument; non-roots receive the broadcast value.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	if c.Rank() == root {
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			if err := c.Send(r, tagBcast, data); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	return c.Recv(root, tagBcast)
}

// Gather collects every rank's data at root, indexed by rank. Non-root
// ranks receive nil.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	if c.Rank() != root {
		return nil, c.Send(root, tagGather, data)
	}
	out := make([][]byte, c.Size())
	out[root] = append([]byte(nil), data...)
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		d, err := c.Recv(r, tagGather)
		if err != nil {
			return nil, err
		}
		out[r] = d
	}
	return out, nil
}

// Scatter distributes parts[r] from root to each rank r; every rank
// returns its own part. Only root's parts argument is consulted.
func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	if c.Rank() == root {
		if len(parts) != c.Size() {
			return nil, fmt.Errorf("mpi: Scatter needs %d parts, got %d", c.Size(), len(parts))
		}
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			if err := c.Send(r, tagScatter, parts[r]); err != nil {
				return nil, err
			}
		}
		return append([]byte(nil), parts[root]...), nil
	}
	return c.Recv(root, tagScatter)
}

// Internal tags keep collective traffic from colliding with user Send/Recv.
const (
	tagBcast = -1 - iota
	tagGather
	tagScatter
	tagReduce
)

// Number is the element type of the numeric collectives: int64 counters
// and float64 bins cross ranks as little-endian 8-byte words, so every
// bit pattern (−0, NaN payloads, ±Inf, math.MinInt64) arrives unchanged.
type Number interface{ int64 | float64 }

// SendSlice sends vs to rank `to` with a tag. Go methods cannot take
// type parameters, so the numeric calls are functions over a Comm.
func SendSlice[T Number](c *Comm, to, tag int, vs []T) error {
	return c.Send(to, tag, encode(vs))
}

// RecvSlice receives a slice SendSlice sent from rank `from`.
func RecvSlice[T Number](c *Comm, from, tag int) ([]T, error) {
	d, err := c.Recv(from, tag)
	if err != nil {
		return nil, err
	}
	return decode[T](d)
}

// ReduceSum adds every rank's slice element-wise at root, combining the
// contributions in rank order so float sums are the same bits run to
// run. Root refuses a contribution whose length differs from its own.
// Non-roots receive nil.
func ReduceSum[T Number](c *Comm, root int, local []T) ([]T, error) {
	if c.Rank() != root {
		return nil, SendSlice(c, root, tagReduce, local)
	}
	sum := make([]T, len(local))
	for r := 0; r < c.Size(); r++ {
		part := local
		if r != root {
			var err error
			if part, err = RecvSlice[T](c, r, tagReduce); err != nil {
				return nil, err
			}
			if len(part) != len(local) {
				return nil, fmt.Errorf("mpi: rank %d contributed %d values to a sum of %d", r, len(part), len(local))
			}
		}
		for i, v := range part {
			sum[i] += v
		}
	}
	return sum, nil
}

// AllreduceSum is ReduceSum at rank 0 followed by a broadcast: every
// rank receives the total.
func AllreduceSum[T Number](c *Comm, local []T) ([]T, error) {
	sum, err := ReduceSum(c, 0, local)
	if err != nil {
		return nil, err
	}
	d, err := c.Bcast(0, encode(sum))
	if err != nil {
		return nil, err
	}
	return decode[T](d)
}

// Allgather concatenates every rank's slice in rank order and delivers
// the whole to every rank.
func Allgather[T Number](c *Comm, local []T) ([]T, error) {
	parts, err := c.Gather(0, encode(local))
	if err != nil {
		return nil, err
	}
	// Concatenated encodings are the encoding of the concatenation.
	d, err := c.Bcast(0, bytes.Join(parts, nil))
	if err != nil {
		return nil, err
	}
	return decode[T](d)
}

// encode is the numeric wire format, switching once on the slice type.
func encode[T Number](vs []T) []byte {
	out := make([]byte, 8*len(vs))
	switch vs := any(vs).(type) {
	case []int64:
		for i, v := range vs {
			binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
		}
	case []float64:
		for i, v := range vs {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
		}
	}
	return out
}

func decode[T Number](d []byte) ([]T, error) {
	if len(d)%8 != 0 {
		return nil, fmt.Errorf("mpi: numeric payload of %d bytes", len(d))
	}
	out := make([]T, len(d)/8)
	switch vs := any(out).(type) {
	case []int64:
		for i := range vs {
			vs[i] = int64(binary.LittleEndian.Uint64(d[8*i:]))
		}
	case []float64:
		for i := range vs {
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(d[8*i:]))
		}
	}
	return out, nil
}

// SplitRange evenly divides the half-open range [0, n) among the world's
// ranks, giving earlier ranks the remainder items, and returns this
// rank's [lo, hi) slice. It is the "evenly divide the datasets into N
// partitions" step shared by every algorithm in the paper.
func (c *Comm) SplitRange(n int) (lo, hi int) {
	return SplitRange(n, c.Size(), c.Rank())
}

// SplitRange divides [0, n) into size near-equal contiguous pieces and
// returns piece `rank`.
func SplitRange(n, size, rank int) (lo, hi int) {
	if size <= 0 || n <= 0 {
		return 0, 0
	}
	base := n / size
	rem := n % size
	lo = rank*base + min(rank, rem)
	hi = lo + base
	if rank < rem {
		hi++
	}
	return lo, hi
}
