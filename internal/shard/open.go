package shard

import (
	"fmt"
	"os"
	"strings"

	"parseq/internal/sam"
)

// settings are the knobs an Option turns; each provider and sink reads
// the ones its container has a use for.
type settings struct {
	indexPath    string // sidecar index: .bai beside a BAM, .baix beside a BAMX or BAMZ
	codecWorkers int    // codec goroutines per shard reader, source or sink
	codecSet     bool   // WithCodecWorkers gave codecWorkers
	groupBytes   int64  // a PAMX sink's group caps (pamx.Options)
	groupRecords int
}

// Option tunes a provider or a sink.
type Option func(*settings)

// WithIndexPath overrides the sidecar index path; "" keeps the default
// (path + ".bai", or the path with its extension replaced by ".baix").
func WithIndexPath(p string) Option {
	return func(s *settings) {
		if p != "" {
			s.indexPath = p
		}
	}
}

// WithCodecWorkers passes n, the BGZF codec worker count, to every BAM
// and BAMZ shard reader's inflate and to a sink's deflate (package
// bgzf's rule places it). The default, 1, keeps readers and writers on
// the caller — the shards themselves are the parallelism — except a BAM
// stream shard's reader, which has no sibling shards and takes bgzf's
// adaptive count.
func WithCodecWorkers(n int) Option {
	return func(s *settings) { s.codecWorkers, s.codecSet = n, true }
}

// WithGroupCaps passes pamx.Options' GroupBytes and GroupRecords to a
// PAMX sink; ≤ 0 keeps the writer's defaults.
func WithGroupCaps(bytes int64, records int) Option {
	return func(s *settings) { s.groupBytes, s.groupRecords = bytes, records }
}

func newSettings(indexPath string, opts []Option) settings {
	s := settings{indexPath: indexPath, codecWorkers: 1}
	for _, opt := range opts {
		opt(&s)
	}
	return s
}

// container is one row of the table of containers, read and write: a
// provider reads it, and create (nil for BAMZ) writes one into out.
type container struct {
	ext    string
	open   func(path string, opts ...Option) Provider
	create func(sk *Sink, out *os.File, h *sam.Header, s settings) (encoder, error)
}

// containers is the one table of containers, by extension; a path with
// none of them is read and written as BAM, the first row.
var containers = []container{
	{".bam", func(path string, opts ...Option) Provider { return NewBAMProvider(path, opts...) }, createBAM},
	{".bamx", func(path string, opts ...Option) Provider { return NewBAMXProvider(path, opts...) }, createBAMX},
	{".bamz", func(path string, opts ...Option) Provider { return NewBAMZProvider(path, opts...) }, nil},
	{".pamx", func(path string, _ ...Option) Provider { return NewPAMXProvider(path) }, createPAMX},
}

// containerOf is path's row of the table.
func containerOf(path string) *container {
	for i := range containers {
		if strings.HasSuffix(path, containers[i].ext) {
			return &containers[i]
		}
	}
	return &containers[0]
}

// Ext is the extension of the container OpenPathProvider opens path as.
func Ext(path string) string { return containerOf(path).ext }

// Exts lists the extensions OpenPathProvider dispatches on.
func Exts() []string {
	exts := make([]string, len(containers))
	for i, c := range containers {
		exts[i] = c.ext
	}
	return exts
}

// OpenPathProvider dispatches on the file extension. A path with none
// of Exts opens as BAM, whose first use then says what a provider reads.
func OpenPathProvider(path string, opts ...Option) Provider {
	return containerOf(path).open(path, opts...)
}

// resolveRefs maps the selection to reference IDs: every header
// reference — and, withTail, the unmapped tail — when neither Refs nor
// Region is set, the named ones otherwise.
func resolveRefs(h *sam.Header, opts Options) (refIDs []int, withTail bool, err error) {
	names := opts.Refs
	if opts.Region != nil {
		names = []string{opts.Region.Ref}
	}
	if names == nil {
		refIDs = make([]int, len(h.Refs))
		for i := range h.Refs {
			refIDs[i] = i
		}
		return refIDs, true, nil
	}
	for _, name := range names {
		id := h.RefID(name)
		if id < 0 {
			return nil, false, fmt.Errorf("shard: reference %q not in header", name)
		}
		refIDs = append(refIDs, id)
	}
	return refIDs, false, nil
}

// clip intersects a base interval with the selection's Region, if any.
func (o Options) clip(beg, end int) (int, int) {
	if o.Region == nil {
		return beg, end
	}
	return max(beg, o.Region.Beg), min(end, o.Region.End)
}
