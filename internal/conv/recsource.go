package conv

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"parseq/internal/bam"
	"parseq/internal/bamx"
	"parseq/internal/mpi"
	"parseq/internal/sam"
)

// recordFile is an indexed record container the runtime partitions by
// record count and reads by random access: plain fixed-stride BAMX, or
// its block-compressed BAMZ variant.
type recordFile interface {
	Header() *sam.Header
	NumRecords() int64
	Caps() bamx.Caps
	// reader returns a decoder over records [lo, hi) — or, with region
	// entries, over the records entries[lo:hi] point at — reporting
	// false at the end.
	reader(entries []bamx.Entry, lo, hi int) func(*sam.Record) (bool, error)
	// rebuildIndex reconstructs the BAIX index when no sidecar supplies it.
	rebuildIndex() (*bamx.Index, error)
}

// recordOpener opens one handle on the container at path; the returned
// function releases it.
type recordOpener func(path string, opts *Options) (recordFile, func(), error)

type plainFile struct{ *bamx.File }

func openPlain(path string, _ *Options) (recordFile, func(), error) {
	f, size, err := openSized(path)
	if err != nil {
		return nil, nil, err
	}
	xf, err := bamx.Open(f, size)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return plainFile{xf}, func() { f.Close() }, nil
}

func (p plainFile) reader(entries []bamx.Entry, lo, hi int) func(*sam.Record) (bool, error) {
	if entries == nil {
		return p.Scan(int64(lo), int64(hi)).Next
	}
	// Region entries of a sorted file are physically adjacent, so this
	// too is about one read per megabyte.
	return p.ScanEntries(entries[lo:hi]).Next
}

func (p plainFile) rebuildIndex() (*bamx.Index, error) { return bamx.BuildIndex(p.File) }

// compressedFile is a BAMZ handle with its own block cache, so each
// rank decompresses only the blocks its records live in.
type compressedFile struct {
	*bamx.CompressedFile
	readahead int // inflate workers running ahead of the record loop; 0 for none
}

func openCompressed(path string, opts *Options) (recordFile, func(), error) {
	f, size, err := openSized(path)
	if err != nil {
		return nil, nil, err
	}
	zf, err := bamx.OpenCompressed(f, size)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	z := compressedFile{CompressedFile: zf}
	if opts.CodecWorkers > 1 {
		// The codec worker budget is shared across ranks; even a single
		// readahead worker overlaps decompression with conversion.
		z.readahead = max(1, opts.CodecWorkers/opts.Cores)
	}
	return z, func() { zf.Close(); f.Close() }, nil
}

func (z compressedFile) reader(entries []bamx.Entry, lo, hi int) func(*sam.Record) (bool, error) {
	if z.readahead > 0 {
		z.StartReadahead(z.readahead)
	}
	return func(rec *sam.Record) (bool, error) {
		if lo >= hi {
			return false, nil
		}
		i := int64(lo)
		if entries != nil {
			i = entries[lo].Index
		}
		lo++
		return true, z.ReadRecord(i, rec)
	}
}

// A compressed file cannot rebuild its index through the plain-file
// scan.
func (z compressedFile) rebuildIndex() (*bamx.Index, error) {
	return nil, fmt.Errorf("conv: partial conversion of a compressed BAMX needs its BAIX index")
}

func openSized(path string) (*os.File, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// regionEntries maps a chromosome region to its contiguous run of BAIX
// entries, reading the index from baixPath or — when that is empty or
// missing — rebuilding it.
func regionEntries(rf recordFile, baixPath string, r *Region) ([]bamx.Entry, error) {
	var idx *bamx.Index
	data, err := os.ReadFile(baixPath)
	switch {
	case err == nil:
		idx, err = bamx.ParseIndex(data)
	case baixPath == "" || os.IsNotExist(err):
		idx, err = rf.rebuildIndex()
	}
	if err != nil {
		return nil, err
	}
	refID := rf.Header().RefID(r.RName)
	if refID < 0 {
		return nil, fmt.Errorf("conv: region reference %q not in header", r.RName)
	}
	beg, end := r.Beg, r.End
	if beg <= 0 {
		beg = 1
	}
	if end <= 0 {
		end = 1<<31 - 1
	}
	lo, hi := idx.Region(int32(refID), beg, end)
	return idx.Entries()[lo:hi], nil
}

// convertRecordFile is the parallel conversion phase over an indexed
// record container: the unit of partitioning — every record, or the
// BAIX region's entries for partial conversion — is divided into
// partitions holding an equal number of records, retrieved by random
// access and converted with no inter-rank communication.
func convertRecordFile(path, baixPath string, open recordOpener, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	rf, release, err := open(path, &opts)
	if err != nil {
		return nil, err
	}
	defer release()
	var (
		resolve   sync.Once // the first rank to partition resolves the region for all
		entries   []bamx.Entry
		regionErr error
		count     = int(rf.NumRecords())
		stride    = int64(rf.Caps().Stride())
	)
	return convert(&opts, rf.Header(), func(c *mpi.Comm) (func(*sink) (rankStats, error), error) {
		resolve.Do(func() {
			if opts.Region != nil {
				entries, regionErr = regionEntries(rf, baixPath, opts.Region)
				count = len(entries)
			}
		})
		lo, hi := c.SplitRange(count)
		return func(sk *sink) (rankStats, error) {
			// Each rank opens its own descriptor, as each MPI process would.
			mine, release, err := open(path, &opts)
			if err != nil {
				return rankStats{}, err
			}
			defer release()
			addBytesTotal(int64(hi-lo) * stride)
			return convertRecords(mine.reader(entries, lo, hi),
				func(records int64) int64 { return records * stride }, sk)
		}, regionErr
	})
}

// ConvertBAMX is the parallel conversion phase of the BAM format
// converter (and of the preprocessing-optimized SAM converter) over the
// fixed-stride BAMX file. With opts.Region set, the BAIX index maps the
// chromosome region to a contiguous record range first (partial
// conversion); baixPath may be empty for full conversion.
func ConvertBAMX(bamxPath, baixPath string, opts Options) (*Result, error) {
	return convertRecordFile(bamxPath, baixPath, openPlain, opts)
}

// ConvertBAMZ is ConvertBAMX for compressed BAMX files: the same
// equal-record partitioning and optional BAIX-backed partial conversion,
// with each rank decompressing only the blocks its records live in.
func ConvertBAMZ(bamzPath, baixPath string, opts Options) (*Result, error) {
	return convertRecordFile(bamzPath, baixPath, openCompressed, opts)
}

// ConvertBAM is the complete BAM format converter of Section III-B:
// sequential preprocessing into a temporary BAMX/BAIX pair, then
// embarrassingly parallel conversion of the fixed-stride file. The
// temporary files live under OutDir (same filesystem as the output) and
// are removed when the conversion finishes. PreprocessTime carries the
// sequential phase separately, as the paper reports it.
func ConvertBAM(bamPath string, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	tmpDir, err := os.MkdirTemp(opts.OutDir, ".parseq-pre-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpDir)
	bamxPath := filepath.Join(tmpDir, "pre.bamx")
	baixPath := filepath.Join(tmpDir, "pre.baix")
	pre, err := PreprocessBAMFile(bamPath, bamxPath, baixPath, opts.CodecWorkers)
	if err != nil {
		return nil, err
	}
	res, err := ConvertBAMX(bamxPath, baixPath, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.PreprocessTime = pre.Duration
	return res, nil
}

// ConvertStream converts one ordered record stream on one rank: the
// degenerate source, a single share holding the whole stream. next
// decodes the following record into its argument (false at the end) and
// consumed reports the input bytes read so far. Region is rejected — a
// stream has no index to resolve it — and Cores is forced to 1.
// ConvertBAMSequential is built on it; the paper-baseline harness
// (internal/experiments) feeds it a deliberately slower iterator.
func ConvertStream(h *sam.Header, next func(*sam.Record) (bool, error), consumed func() int64, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if opts.Region != nil {
		return nil, fmt.Errorf("conv: a sequential record stream does not support partial conversion; preprocess to BAMX first")
	}
	opts.Cores, opts.Launch = 1, nil
	return convert(&opts, h, func(*mpi.Comm) (func(*sink) (rankStats, error), error) {
		return func(sk *sink) (rankStats, error) {
			return convertRecords(next, func(int64) int64 { return consumed() }, sk)
		}, nil
	})
}

// ConvertBAMSequential converts a BAM file record-at-a-time on one core —
// the paper's "BAM format converter without preprocessing" Table I
// configuration: ConvertStream over the file's BAM reader.
func ConvertBAMSequential(bamPath string, opts Options) (*Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if opts.Region != nil {
		return nil, fmt.Errorf("conv: sequential BAM conversion does not support partial conversion; preprocess to BAMX first")
	}
	f, size, err := openSized(bamPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br, err := bam.NewReader(f, bam.WithCodecWorkers(opts.CodecWorkers))
	if err != nil {
		return nil, err
	}
	defer br.Close()
	addBytesTotal(size)
	next := func(rec *sam.Record) (bool, error) {
		err := br.ReadInto(rec)
		if err == io.EOF {
			return false, nil
		}
		return err == nil, err
	}
	// Input consumed is how far the codec has read the file (an offset
	// query that cannot fail on an open regular file): all of it once the
	// stream ends.
	return ConvertStream(br.Header(), next, func() int64 {
		off, _ := f.Seek(0, io.SeekCurrent)
		return off
	}, opts)
}
