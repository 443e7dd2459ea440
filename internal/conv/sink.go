package conv

import (
	"bufio"
	"os"

	"parseq/internal/bam"
	"parseq/internal/formats"
	"parseq/internal/mpi"
	"parseq/internal/sam"
)

// writeBufSize is the per-rank write buffer (the paper's "write buffer"
// between the user program and the target file). One megabyte keeps
// the write syscall count low enough that the batch pipeline's drain
// stage is not syscall-bound when batches arrive back to back.
const writeBufSize = 1 << 20

// encodeFunc appends rec's target object to dst (nothing, for a record
// the format skips). One instance serves one goroutine.
type encodeFunc func(dst []byte, rec *sam.Record) ([]byte, error)

// sink is one rank's target file: a text file written through a
// formats.Encoder, or — Format "bam" — a complete, valid BAM file
// carrying the header (a shard). Encoding is separate from writing so
// the batch pipeline can encode on its parse workers and hand the bytes
// to write in input order; BGZF framing is write-granularity
// independent, so a shard's bytes do not depend on who encoded.
type sink struct {
	path   string
	format string
	h      *sam.Header
	f      *os.File
	bw     *bufio.Writer // text target
	shard  *bam.Writer   // BAM target
	n      int64         // bytes accepted so far (before compression, for a shard)
}

// newSink creates rank r's target file; rank 0 of a text target carries
// the format's prologue (e.g. the SAM header or the BEDGRAPH track line).
func newSink(opts *Options, h *sam.Header, rank int) (*sink, error) {
	s := &sink{format: opts.Format, h: h}
	var prologue []byte
	ext := ".bam"
	if opts.Format != "bam" {
		enc, err := formats.New(opts.Format)
		if err != nil {
			return nil, err
		}
		ext = enc.Extension()
		if rank == 0 {
			prologue = enc.Header(h)
		}
	}
	s.path = opts.outPath(ext, rank)
	f, err := os.Create(s.path)
	if err != nil {
		return nil, err
	}
	s.f = f
	if opts.Format == "bam" {
		// When CodecWorkers was left adaptive the shard attaches to the
		// process-wide shared deflate pool (bgzf.SharedPool) — the many
		// short-lived per-rank writers stop paying a pool start/stop each
		// — while an explicit worker count keeps the per-stream pool or
		// the sequential codec.
		codec := bam.WithCodecWorkers(opts.CodecWorkers)
		if opts.sharedCodec {
			codec = bam.WithSharedCodec()
		}
		if s.shard, err = bam.NewWriter(f, h, codec); err != nil {
			f.Close()
			return nil, err
		}
		return s, nil
	}
	s.bw = bufio.NewWriterSize(f, writeBufSize)
	if err := s.write(prologue); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// encoder returns a fresh encode function. Text targets get their own
// encoder instance each, since user-registered encoders may hold per-run
// state that is not safe to share across goroutines. The function holds
// the header, not the sink: the batch pipeline's workers keep it
// reachable through their pipe for two GC cycles after a conversion (the
// pipe embeds a sync.Pool, which the runtime tracks that long), and a
// sink pins a megabyte of write buffer — measured as +40% peak RSS on a
// daemon serving small jobs.
func (s *sink) encoder() encodeFunc {
	h := s.h
	if s.shard != nil {
		return func(dst []byte, rec *sam.Record) ([]byte, error) {
			return bam.EncodeRecord(dst, rec, h)
		}
	}
	enc, _ := formats.New(s.format) // newSink proved the name registered
	return func(dst []byte, rec *sam.Record) ([]byte, error) {
		return enc.Encode(dst, rec, h)
	}
}

// write appends one pre-encoded run of target bytes; calls are in
// output order. Batch-sized text runs go straight to the file — copying
// a 256 KiB run through the bufio buffer only to flush it moments later
// would memmove the entire output once for nothing — while small runs
// keep the buffer's syscall batching.
func (s *sink) write(p []byte) error {
	s.n += int64(len(p))
	if s.shard != nil {
		return s.shard.WriteEncoded(p)
	}
	if len(p) < 64<<10 {
		_, err := s.bw.Write(p)
		return err
	}
	if err := s.bw.Flush(); err != nil {
		return err
	}
	_, err := s.f.Write(p)
	return err
}

// close flushes and closes the target and returns its size in bytes. It
// is called on the error path too: a failed conversion leaves every
// record before the first error on disk, and a shard's codec workers
// are released before the file is abandoned.
func (s *sink) close() (int64, error) {
	n := s.n
	var err error
	if s.shard != nil {
		if err = s.shard.Close(); err == nil {
			var fi os.FileInfo
			if fi, err = s.f.Stat(); err == nil {
				n = fi.Size()
			}
		}
	} else {
		err = s.bw.Flush()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// convert runs one conversion on the driver: plan is a rank's partition
// step and returns the rank's share of the source, a function that
// streams the share's records through the rank's sink.
func convert(opts *Options, h *sam.Header,
	plan func(c *mpi.Comm) (share func(*sink) (rankStats, error), err error)) (*Result, error) {

	res := &Result{Files: make([]string, opts.Cores)}
	var err error
	res.Stats, err = run(opts, "convert", func(c *mpi.Comm) (func() (rankStats, error), error) {
		share, err := plan(c)
		return func() (rankStats, error) {
			sk, err := newSink(opts, h, c.Rank())
			if err != nil {
				return rankStats{}, err
			}
			st, err := share(sk)
			n, cerr := sk.close()
			if err == nil {
				err = cerr
			}
			if err != nil {
				return st, err
			}
			st.bytesOut = n
			res.Files[c.Rank()] = sk.path
			return st, nil
		}, err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// convertRecords is the record loop of the binary and stream sources:
// next decodes the source's following record (false at the end of the
// rank's share), consumed reports the input bytes read so far, and each
// record runs through the user program into the sink.
func convertRecords(next func(*sam.Record) (bool, error), consumed func() int64, sk *sink) (st rankStats, err error) {
	encode := sk.encoder()
	// Periodic flushes keep /progress live without an atomic per record.
	live := newLiveProgress()
	var flushed rankStats
	flush := func() {
		now := rankStats{records: st.records, bytesIn: consumed(), bytesOut: sk.n}
		live.batch(now.records-flushed.records, now.bytesIn-flushed.bytesIn, now.bytesOut-flushed.bytesOut)
		flushed = now
	}
	defer func() {
		flush()
		st.bytesIn = flushed.bytesIn
	}()
	var rec sam.Record
	var out []byte
	for {
		ok, err := next(&rec)
		if err != nil || !ok {
			return st, err
		}
		st.records++
		if st.records%liveFlushEvery == 0 {
			flush()
		}
		if out, err = encode(out[:0], &rec); err != nil {
			return st, err
		}
		if len(out) > 0 {
			st.emitted++
			if err := sk.write(out); err != nil {
				return st, err
			}
		}
	}
}
