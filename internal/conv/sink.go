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
	path, err := OutputPath(*opts, rank)
	if err != nil {
		return nil, err
	}
	s := &sink{path: path, format: opts.Format, h: h}
	var prologue []byte
	if opts.Format != "bam" && rank == 0 {
		enc, _ := formats.New(opts.Format) // OutputPath proved the name registered
		prologue = enc.Header(h)
	}
	f, err := os.Create(s.path)
	if err != nil {
		return nil, err
	}
	s.f = f
	if opts.Format == "bam" {
		if s.shard, err = bam.NewWriter(f, h, bam.WithCodecWorkers(opts.CodecWorkers)); err != nil {
			f.Close()
			os.Remove(s.path)
			return nil, err
		}
		return s, nil
	}
	s.bw = bufio.NewWriterSize(f, writeBufSize)
	if err := s.write(prologue); err != nil {
		f.Close()
		os.Remove(s.path)
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
func (s *sink) encoder() sam.Visit {
	if s.shard != nil {
		return bamEncoder(s.h)
	}
	enc, _ := formats.New(s.format) // newSink proved the name registered
	h := s.h
	return func(dst []byte, rec *sam.Record) ([]byte, error) {
		return enc.Encode(dst, rec, h)
	}
}

// bodyStep returns the rank's per-record step over encoded bodies: a
// text format's AppendBody (formats.BodyEncoder; the body path), or a
// decode into a record for the encoder (the record path) — JSON, YAML,
// registered formats and BAM shards, whose re-encode renormalises tags.
func (s *sink) bodyStep() func(dst, body []byte) ([]byte, error) {
	h := s.h
	if s.shard == nil {
		enc, _ := formats.New(s.format) // newSink proved the name registered
		if be, ok := enc.(formats.BodyEncoder); ok {
			return func(dst, body []byte) ([]byte, error) { return be.AppendBody(dst, body, h) }
		}
	}
	encode := s.encoder()
	var rec sam.Record
	return func(dst, body []byte) ([]byte, error) {
		if err := bam.DecodeRecord(body, &rec, h); err != nil {
			return dst, err
		}
		return encode(dst, &rec)
	}
}

// bamEncoder encodes records for a BAM shard or preprocessing's spill.
func bamEncoder(h *sam.Header) sam.Visit {
	return func(dst []byte, rec *sam.Record) ([]byte, error) {
		return bam.EncodeRecord(dst, rec, h)
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
// is called on the error path too, so that a shard's codec workers are
// released; convert then removes every rank's file, and a failed
// conversion leaves no partial target behind.
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
			res.Files[c.Rank()] = sk.path
			st, err := share(sk)
			n, cerr := sk.close()
			if err == nil {
				err = cerr
			}
			st.bytesOut = n
			return st, err
		}, err
	})
	if err != nil {
		for _, path := range res.Files { // every file a rank of this process created
			if path != "" {
				os.Remove(path)
			}
		}
		return nil, err
	}
	return res, nil
}

// convertRecords is the record loop of the binary and stream sources:
// next appends the source's following record, rendered by the user
// program, to dst (ok false at the end of the rank's share), consumed
// reports the input bytes read so far, and each rendered record goes to
// the sink.
func convertRecords(next func(dst []byte) (out []byte, ok bool, err error), consumed func() int64, sk *sink) (st rankStats, err error) {
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
	var out []byte
	for {
		var ok bool
		if out, ok, err = next(out[:0]); err != nil || !ok {
			return st, err
		}
		st.records++
		if st.records%liveFlushEvery == 0 {
			flush()
		}
		if len(out) > 0 {
			st.emitted++
			if err := sk.write(out); err != nil {
				return st, err
			}
		}
	}
}
