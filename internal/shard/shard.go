// Package shard cuts an indexed alignment file into genomic-range
// shards and hands each worker — local goroutine or distributed rank —
// an independent seek-and-scan iterator. Block-level parallelism inside
// one stream plateaus on the ordered scan; this layer is the scaling
// story past it: the partition step of the paper applied at the genome
// level, in the style of htslib's region threading and grailbio's
// bamprovider.
//
// The contract every provider upholds is exactly-once coverage: a
// record belongs to the shard whose half-open interval contains its
// alignment *start* (never the shards it merely overlaps into), and
// fully unmapped records belong to the single unmapped-tail shard. Any
// partition of the shard list over workers, ranks and transports
// therefore tallies every record exactly once, which is what makes the
// analyses' merged results identical to a sequential scan at any shard
// count.
package shard

import (
	"encoding/binary"
	"fmt"

	"parseq/internal/mpi"
	"parseq/internal/sam"
)

// Shard is one unit of region-parallel work: a half-open base interval
// of one reference, or (RefID -1) records no reference interval names —
// the unmapped tail of a BAM or PAMX file, a physical record range of a
// fixed-stride file, the whole of a BAM read as one stream. Bytes is the
// provider's estimate of the compressed input under the shard — the
// balancing weight for partitioning across ranks. Seq is the shard's ordinal in generation order: drivers fold
// per-shard results in Seq order so merged output is deterministic, and
// draining a whole-file generation in Seq order replays the file (any
// BAM at one target shard, a coordinate-sorted BAM or PAMX; any BAMX or
// BAMZ).
type Shard struct {
	Seq     int
	RefID   int32
	RefName string // "" when RefID is -1
	Beg     int    // zero-based half-open base interval (reference shards)
	End     int
	RecLo   int64 // BAMX/BAMZ: BAIX entry range (reference shards) or physical record range; PAMX: the group;
	RecHi   int64 // BAM: a stream shard's compressed byte range, the whole file (index shards: 0, 0)
	Bytes   int64
}

// Unmapped reports whether the shard lies outside every reference
// interval (RefID -1).
func (sh Shard) Unmapped() bool { return sh.RefID < 0 }

// String renders the shard for spans and logs.
func (sh Shard) String() string {
	switch {
	case sh.Unmapped() && sh.RecLo == sh.RecHi:
		return "*:unmapped"
	case sh.Unmapped():
		return fmt.Sprintf("*:%d-%d", sh.RecLo, sh.RecHi)
	}
	return fmt.Sprintf("%s:%d-%d", sh.RefName, sh.Beg, sh.End)
}

// RecordReader iterates one shard's records: NextBody returns the next
// BAM-encoded record body (for bam.DecodeRecord; it aliases an internal
// buffer and is valid until the next call), io.EOF after the last.
type RecordReader interface {
	NextBody() ([]byte, error)
	Close() error
}

// Region bounds a selection to one reference and, on it, to the records
// whose alignment starts within the zero-based half-open base interval
// [Beg, End).
type Region struct {
	Ref      string
	Beg, End int
}

// Options tunes shard generation.
type Options struct {
	// TargetShards is the shard count to aim for across the selected
	// references (a guide, not a guarantee: cuts land on index-window
	// boundaries). ≤ 0 picks DefaultTargetShards.
	TargetShards int
	// TargetBytes, when > 0, overrides TargetShards with an absolute
	// per-shard compressed-byte goal.
	TargetBytes int64
	// Refs selects references by name. nil means every reference plus
	// the unmapped tail; non-nil restricts to the named references only
	// (no tail shard), the whole-chromosome analysis case.
	Refs []string
	// Region, when set, replaces Refs with one bounded reference — the
	// partial-conversion selection, whose pieces TargetShards then counts.
	Region *Region
}

// DefaultTargetShards is the generation goal when Options leaves both
// targets unset: enough shards that a dynamic queue can balance skew,
// few enough that per-shard seek overhead stays negligible.
const DefaultTargetShards = 16

// Provider generates shards of one indexed input and opens independent
// readers over them. Implementations must allow concurrent NewReader
// calls and concurrent use of the returned readers — that is the whole
// point.
type Provider interface {
	Header() (*sam.Header, error)
	GenerateShards(opts Options) ([]Shard, error)
	NewReader(sh Shard) (RecordReader, error)
	Close() error
}

// shardWeight is the partitioning weight: estimated bytes, floored at
// one so empty-estimate shards still count toward balance.
func shardWeight(sh Shard) int64 {
	if sh.Bytes < 1 {
		return 1
	}
	return sh.Bytes
}

// PartitionByBytes splits shards into n contiguous groups balanced by
// their compressed-byte estimates: each group targets the remaining
// mean, so a fat reference concentrates groups and deserts spread out.
// Deterministic; trailing groups may be empty when shards run out.
func PartitionByBytes(shards []Shard, n int) [][]Shard {
	if n < 1 {
		n = 1
	}
	groups := make([][]Shard, n)
	var rem int64
	for _, sh := range shards {
		rem += shardWeight(sh)
	}
	start := 0
	for g := range groups {
		if start >= len(shards) {
			break
		}
		if g == n-1 {
			groups[g] = shards[start:]
			break
		}
		target := rem / int64(n-g)
		end := start + 1
		acc := shardWeight(shards[start])
		// Take the next shard while more than half of it fits under the
		// target — the closest-cut rule keeps groups near the mean.
		for end < len(shards) && acc+shardWeight(shards[end])/2 <= target {
			acc += shardWeight(shards[end])
			end++
		}
		groups[g] = shards[start:end]
		start = end
		rem -= acc
	}
	return groups
}

// Wire format: one shard is a fixed 44-byte prefix plus the name.
const shardWirePrefix = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 2

// EncodeShards serialises a shard list for Scatter.
func EncodeShards(shards []Shard) []byte {
	dst := binary.LittleEndian.AppendUint32(nil, uint32(len(shards)))
	for _, sh := range shards {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(sh.Seq))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(sh.RefID))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(sh.Beg))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(sh.End))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(sh.RecLo))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(sh.RecHi))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(sh.Bytes))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(sh.RefName)))
		dst = append(dst, sh.RefName...)
	}
	return dst
}

// DecodeShards parses an EncodeShards payload.
func DecodeShards(data []byte) ([]Shard, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("shard: truncated shard list")
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	// n is untrusted wire input: bound it by the bytes present.
	if n < 0 || n > len(data)/shardWirePrefix {
		return nil, fmt.Errorf("shard: shard list declares %d shards, data holds %d bytes", n, len(data))
	}
	shards := make([]Shard, 0, n)
	for i := 0; i < n; i++ {
		if len(data) < shardWirePrefix {
			return nil, fmt.Errorf("shard: truncated shard %d", i)
		}
		sh := Shard{
			Seq:   int(int32(binary.LittleEndian.Uint32(data[0:]))),
			RefID: int32(binary.LittleEndian.Uint32(data[4:])),
			Beg:   int(int64(binary.LittleEndian.Uint64(data[8:]))),
			End:   int(int64(binary.LittleEndian.Uint64(data[16:]))),
			RecLo: int64(binary.LittleEndian.Uint64(data[24:])),
			RecHi: int64(binary.LittleEndian.Uint64(data[32:])),
			Bytes: int64(binary.LittleEndian.Uint64(data[40:])),
		}
		nameLen := int(binary.LittleEndian.Uint16(data[48:]))
		data = data[shardWirePrefix:]
		if nameLen > len(data) {
			return nil, fmt.Errorf("shard: truncated shard %d name", i)
		}
		sh.RefName = string(data[:nameLen])
		data = data[nameLen:]
		shards = append(shards, sh)
	}
	return shards, nil
}

// Scatter distributes a shard list across the communicator: rank 0
// partitions shards into Size() contiguous byte-balanced groups and
// scatters the descriptors; every rank returns its own group. Only rank
// 0's shards argument is consulted.
func Scatter(c *mpi.Comm, shards []Shard) ([]Shard, error) {
	var parts [][]byte
	if c.Rank() == 0 {
		groups := PartitionByBytes(shards, c.Size())
		parts = make([][]byte, len(groups))
		for i, g := range groups {
			parts[i] = EncodeShards(g)
		}
	}
	mine, err := c.Scatter(0, parts)
	if err != nil {
		return nil, err
	}
	return DecodeShards(mine)
}

// Distribute is the partition step every provider client shares: rank 0
// (alone in touching the provider's index) generates the selection's
// shards, Scatter hands each rank its contiguous byte-balanced group.
func Distribute(c *mpi.Comm, p Provider, opts Options) ([]Shard, error) {
	var all []Shard
	if c.Rank() == 0 {
		var err error
		if all, err = p.GenerateShards(opts); err != nil {
			return nil, err
		}
	}
	return Scatter(c, all)
}

// Config tunes a region-parallel analysis run.
type Config struct {
	// Ranks is the world size to launch (≥ 1; under a TCP launcher it
	// must equal the world size). Zero means 1.
	Ranks int
	// Workers is the per-rank worker goroutine count draining the local
	// shard queue. Zero picks a GOMAXPROCS-derived default.
	Workers int
	// TargetShards overrides the generation goal. Zero derives it from
	// the aggregate worker count so the dynamic queue has slack.
	TargetShards int
	// Launch runs the rank functions. nil means mpi.Run, the in-process
	// channel world.
	Launch mpi.Launcher
}

// Launcher resolves the launcher and rank count a driver should run
// with: mpi.Run when unset, and at least one rank.
func (cfg Config) Launcher() (mpi.Launcher, int) {
	launch := cfg.Launch
	if launch == nil {
		launch = mpi.Run
	}
	ranks := cfg.Ranks
	if ranks < 1 {
		ranks = 1
	}
	return launch, ranks
}

// ResolveTargetShards resolves the generation goal for a world of the
// given size: explicit when set, otherwise four shards per worker
// across the world so the dynamic queues can rebalance stragglers.
func (cfg Config) ResolveTargetShards(worldSize int) int {
	if cfg.TargetShards > 0 {
		return cfg.TargetShards
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = defaultWorkers()
	}
	n := 4 * workers * worldSize
	if n < DefaultTargetShards {
		n = DefaultTargetShards
	}
	return n
}
