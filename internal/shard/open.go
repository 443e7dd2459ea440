package shard

import (
	"fmt"
	"strings"

	"parseq/internal/sam"
)

// settings are the knobs an Option turns; each provider reads the ones
// its container has a use for.
type settings struct {
	indexPath    string // sidecar index: .bai beside a BAM, .baix beside a BAMX or BAMZ
	codecWorkers int    // codec goroutines per shard reader
}

// Option tunes a provider.
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

// WithCodecWorkers gives every shard reader n codec goroutines of its
// own: BGZF inflate workers under a BAM reader (n > 1), block readahead
// workers under a BAMZ reader (n > 0). The default, 0, keeps readers
// sequential — the shards themselves are the parallelism.
func WithCodecWorkers(n int) Option {
	return func(s *settings) { s.codecWorkers = n }
}

func newSettings(indexPath string, opts []Option) settings {
	s := settings{indexPath: indexPath}
	for _, opt := range opts {
		opt(&s)
	}
	return s
}

// containers is the one table of what a provider reads, by extension.
var containers = []struct {
	ext  string
	open func(path string, opts ...Option) Provider
}{
	{".bam", func(path string, opts ...Option) Provider { return NewBAMProvider(path, opts...) }},
	{".bamx", func(path string, opts ...Option) Provider { return NewBAMXProvider(path, opts...) }},
	{".bamz", func(path string, opts ...Option) Provider { return NewBAMZProvider(path, opts...) }},
	{".pamx", func(path string, _ ...Option) Provider { return NewPAMXProvider(path) }},
}

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
	for _, c := range containers {
		if strings.HasSuffix(path, c.ext) {
			return c.open(path, opts...)
		}
	}
	return NewBAMProvider(path, opts...)
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
