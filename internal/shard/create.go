package shard

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"

	"parseq/internal/bam"
	"parseq/internal/bamx"
	"parseq/internal/formats/pamx"
	"parseq/internal/sam"
)

// Sink is one container file being written, the write twin of a
// Provider: WriteBody takes BAM-encoded record bodies (no block_size)
// in file order. Every file is written under a temporary name beside
// its own, and only Close renames it into place, so a failed or aborted
// write leaves no file and an existing one as it was. The first error
// sticks. Abort after Close is a no-op: defer Abort, return Close.
type Sink struct {
	enc   encoder
	files []*os.File // temporary; Close renames files[i] to paths[i]
	paths []string
	err   error
}

// encoder is a container's side of a Sink: close completes the container
// when commit is set and otherwise only releases it.
type encoder interface {
	writeBody(body []byte) error
	close(commit bool) error
}

var errSinkEnded = errors.New("shard: sink closed")

// Create starts the container path's extension names: .bam (or no known
// extension), .pamx, or .bamx with its BAIX sidecar (WithIndexPath, or
// the path with .baix). WithCodecWorkers places a BAM or PAMX deflate
// and WithGroupCaps cuts PAMX groups. A BAMX stride needs every record's
// sizes first, so its sink spills the bodies raw beside path while it
// measures their caps, and pads them on Close: temporary disk equal to
// the uncompressed records, memory a buffer.
func Create(path string, h *sam.Header, opts ...Option) (*Sink, error) {
	c := containerOf(path)
	if c.create == nil {
		return nil, fmt.Errorf("shard: cannot write a %s file: %s", c.ext, path)
	}
	sk := &Sink{}
	out, err := sk.add(path)
	var enc encoder
	if err == nil {
		enc, err = c.create(sk, out, h, newSettings(strings.TrimSuffix(path, ".bamx")+".baix", opts))
	}
	if err != nil {
		sk.end(false)
		return nil, err
	}
	sk.enc = enc
	return sk, nil
}

// Outputs names the files Create(path, …, opts...) commits.
func Outputs(path string, opts ...Option) []string {
	if containerOf(path).ext != ".bamx" {
		return []string{path}
	}
	return []string{path, newSettings(strings.TrimSuffix(path, ".bamx")+".baix", opts).indexPath}
}

// WriteBody appends one record body.
func (sk *Sink) WriteBody(body []byte) error {
	if sk.err == nil {
		sk.err = sk.enc.writeBody(body)
	}
	return sk.err
}

// Close completes the container and commits its files. After any
// error it commits nothing.
func (sk *Sink) Close() error { return sk.end(true) }

// Abort releases the container and removes what it wrote.
func (sk *Sink) Abort() { sk.end(false) }

func (sk *Sink) end(commit bool) error {
	if sk.err == errSinkEnded {
		return sk.err
	}
	err := sk.err
	if sk.enc != nil {
		if cerr := sk.enc.close(commit && err == nil); err == nil {
			err = cerr
		}
	}
	for _, f := range sk.files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	for i := 0; commit && err == nil && i < len(sk.files); i++ {
		if err = os.Rename(sk.files[i].Name(), sk.paths[i]); err != nil {
			for _, p := range sk.paths[:i] { // a BAMX never lands without its BAIX
				os.Remove(p)
			}
		}
	}
	if !commit || err != nil {
		for _, f := range sk.files {
			os.Remove(f.Name())
		}
	}
	sk.err = errSinkEnded
	return err
}

// add opens a temporary file beside path, with os.Create's mode, for
// Close to rename to path.
func (sk *Sink) add(path string) (*os.File, error) {
	for try := 0; ; try++ {
		f, err := os.OpenFile(fmt.Sprintf("%s.tmp-%08x", path, rand.Uint32()), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if err == nil {
			sk.files, sk.paths = append(sk.files, f), append(sk.paths, path)
		}
		if !os.IsExist(err) || try == 100 {
			return f, err
		}
	}
}

type bamSink struct {
	*bam.Writer
	frame []byte // a body behind its block_size
}

func createBAM(_ *Sink, out *os.File, h *sam.Header, s settings) (encoder, error) {
	w, err := bam.NewWriter(out, h, bam.WithCodecWorkers(s.codecWorkers))
	return &bamSink{Writer: w}, err
}

// writeBody refuses what a BAM reader would: a body under the 32-byte
// fixed section.
func (e *bamSink) writeBody(body []byte) error {
	if len(body) < 32 {
		return fmt.Errorf("%w: %d-byte body", bam.ErrInvalidRecord, len(body))
	}
	e.frame = append(binary.LittleEndian.AppendUint32(e.frame[:0], uint32(len(body))), body...)
	return e.WriteEncoded(e.frame)
}

func (e *bamSink) close(bool) error { return e.Close() }

type pamxSink struct{ *pamx.Writer }

func createPAMX(_ *Sink, out *os.File, h *sam.Header, s settings) (encoder, error) {
	w, err := pamx.NewWriter(out, h, pamx.Options{CodecWorkers: s.codecWorkers, GroupBytes: s.groupBytes, GroupRecords: s.groupRecords})
	return pamxSink{w}, err
}

func (e pamxSink) writeBody(body []byte) error { return e.WriteBody(body) }
func (e pamxSink) close(bool) error            { return e.Close() }

// bamxSink spills bodies raw (a bam.RunReader run) and grows their caps,
// then pads them through bamx.WriteBodies, the one padded-record writer,
// and writes the BAIX it returns.
type bamxSink struct {
	h          *sam.Header
	out, index *os.File
	spill      *os.File
	buf        *bufio.Writer
	caps       bamx.Caps
	n          int64
}

func createBAMX(sk *Sink, out *os.File, h *sam.Header, s settings) (encoder, error) {
	index, err := sk.add(s.indexPath)
	if err != nil {
		return nil, err
	}
	spill, err := os.CreateTemp(filepath.Dir(sk.paths[0]), filepath.Base(sk.paths[0])+".spill-*") // beside the BAMX
	if err != nil {
		return nil, err
	}
	return &bamxSink{h: h, out: out, index: index, spill: spill, buf: bufio.NewWriterSize(spill, 256<<10)}, nil
}

func (e *bamxSink) writeBody(body []byte) error {
	if err := e.caps.Observe(body); err != nil {
		return err
	}
	e.buf.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(body))))
	_, err := e.buf.Write(body) // sticky: reports the first failed write
	e.n++
	return err
}

func (e *bamxSink) close(commit bool) error {
	defer os.Remove(e.spill.Name())
	defer e.spill.Close()
	if !commit {
		return nil
	}
	err := e.buf.Flush()
	if err == nil {
		_, err = e.spill.Seek(0, io.SeekStart)
	}
	var idx *bamx.Index
	if err == nil {
		idx, err = bamx.WriteBodies(e.out, e.h, e.caps, bam.NewRunReader(e.spill, e.n).NextBody)
	}
	if err == nil {
		_, err = idx.WriteTo(e.index)
	}
	return err
}

// Rewrite copies the records of src — any container OpenPathProvider
// reads — in file order into a new dst, which Create writes, and returns
// the record count: it drains a whole-file generation of one target
// shard, which for a BAM is its stream shard. Bodies pass through
// undecoded; each container checks them as it writes. WithCodecWorkers
// places both codecs, WithIndexPath names a BAMX dst's sidecar and
// WithGroupCaps cuts a PAMX dst's groups.
func Rewrite(src, dst string, opts ...Option) (int64, error) {
	p := OpenPathProvider(src, WithCodecWorkers(newSettings("", opts).codecWorkers))
	defer p.Close()
	h, err := p.Header()
	if err != nil {
		return 0, err
	}
	shards, err := p.GenerateShards(Options{TargetShards: 1})
	if err != nil {
		return 0, err
	}
	out, err := Create(dst, h, opts...)
	if err != nil {
		return 0, err
	}
	defer out.Abort()
	var n int64
	err = ForEach(p, shards, 1, func(_ int, _ Shard, rr RecordReader) error {
		for ; ; n++ {
			body, err := rr.NextBody()
			if err == io.EOF {
				return nil
			}
			if err == nil {
				err = out.WriteBody(body)
			}
			if err != nil {
				return err
			}
		}
	})
	if err == nil {
		err = out.Close()
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}
