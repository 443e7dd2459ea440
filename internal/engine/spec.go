// Package engine is parseq's one job surface: a Spec says what to run
// (convert, sort, flagstat, hist, peaks, nlmeans or fdr, with every
// option a client may set), an Env says where (the resolved input, the
// output destination, the rank world), and Run routes the pair onto the
// conv/shard/sorter/flagstat/hist/peaks/nlmeans/fdr libraries. seqconvd
// decodes a Spec from JSON; seqconvert, samsort, samstat, ngsstat and
// ngsbench fill one from flags; both call Run, so a job means the same
// thing — same converter inference, same output names, same bytes —
// whichever front end described it.
package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path"
	"strings"

	"parseq/internal/conv"
	"parseq/internal/formats"
	"parseq/internal/shard"
)

// Ops Run executes. Convert is the format converter; the rest are the
// analysis engines on the same substrate, nlmeans and fdr over a
// histogram TSV (one value per line, hist's output).
const (
	OpConvert  = "convert"
	OpSort     = "sort"
	OpFlagstat = "flagstat"
	OpHist     = "hist"
	OpPeaks    = "peaks"
	OpNLMeans  = "nlmeans"
	OpFDR      = "fdr"
)

// Spec is the client-facing description of one job, and seqconvd's JSON
// wire format. Every field is optional except Op ("" defaults to
// "convert"); Validate pins the invariants.
type Spec struct {
	// Op selects the engine: convert, sort, flagstat, hist, peaks,
	// nlmeans or fdr.
	Op string `json:"op,omitempty"`
	// Converter picks the converter instance for Op=convert: auto (by
	// input extension), sam, bam, psam, bamx, bamz or pamx.
	Converter string `json:"converter,omitempty"`
	// Format is the conversion target format: a text format (sam, bed,
	// ...; "" means sam) or bam, one file per rank; or bamx or pamx, one
	// container, <OutPrefix>.bamx (with its .baix) or <OutPrefix>.pamx,
	// rewritten from any container input. A SAM input's bamx target is
	// psam's preprocessing instead: one <OutPrefix>_m<rank> pair per rank.
	Format string `json:"format,omitempty"`
	// Ranks is the rank count: in-process goroutine ranks by default,
	// or — when Env.Launch is a distributed launcher — the world size.
	// 0 means 1. It is the job's one parallelism setting: the codec,
	// parse and shard workers under each rank take the adaptive count,
	// which reads GOMAXPROCS.
	Ranks int `json:"ranks,omitempty"`
	// Region restricts conversion to one chromosome region
	// ("chr1:100-200") of a .bam, .bamx, .bamz or .pamx input, or of a
	// SAM input under the psam converter, which preprocesses into BAMX
	// first; the per-rank targets only, not bamx or pamx.
	Region string `json:"region,omitempty"`
	// InputPath names the input file. Empty means the caller resolves
	// the input itself (Env.Input — seqconvd's streamed uploads); then
	// InputName supplies the filename whose extension drives
	// auto-detection.
	InputPath string `json:"input_path,omitempty"`
	InputName string `json:"input_name,omitempty"`
	// Shards is the region-parallel analyses' shard generation goal
	// (flagstat, hist, peaks over .bam/.bamx/.bamz/.pamx inputs); 0 picks
	// the adaptive default.
	Shards int `json:"shards,omitempty"`
	// RName and BinSize select the reference and bin width for hist and
	// peaks.
	RName   string `json:"rname,omitempty"`
	BinSize int    `json:"bin,omitempty"`
	// Sims and Seed are the simulation dataset count and seed of the
	// synthetic background peaks and fdr compare against; Candidates are
	// the thresholds peaks' FDR selection sweeps.
	Sims       int       `json:"sims,omitempty"`
	Seed       int64     `json:"seed,omitempty"`
	Candidates []float64 `json:"candidates,omitempty"`
	// R, L and Sigma are nlmeans' search radius and half patch size, in
	// bins, and its filtering parameter σ; PT is fdr's threshold p_t.
	// Validate clears them on every other op.
	R     int     `json:"r,omitempty"`
	L     int     `json:"l,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	PT    float64 `json:"pt,omitempty"`
}

// Limits bound the numeric fields so a hostile spec cannot ask for
// absurd worlds, shard counts or NL-means windows (a rank's window holds
// about 2·r² weights, and each edge bin costs (2r+1)(2l+1) steps).
// MaxSpecLen caps the encoded spec.
const (
	maxRanks   = 1024
	maxShards  = 1 << 16
	maxSims    = 1 << 12
	maxWindow  = 1 << 10
	MaxSpecLen = 1 << 16
)

// kinds is the converter table: the instance each input extension
// auto-detects to. psam is the preprocessing-optimized SAM converter —
// an explicit choice, never inferred.
var kinds = []struct{ name, ext string }{
	{"sam", ".sam"},
	{"bam", ".bam"},
	{"bamx", ".bamx"},
	{"bamz", ".bamz"},
	{"pamx", ".pamx"},
	{"psam", ""},
}

// Converters lists the values Converter accepts, for help strings.
func Converters() []string {
	names := []string{"auto"}
	for _, k := range kinds {
		names = append(names, k.name)
	}
	return names
}

// InputExts lists input extensions for help strings: for the analyses
// the containers a shard provider reads (the region-parallel path; SAM
// text goes through Algorithm 1 partitioning), for convert those and .sam.
func InputExts(op string) []string {
	if op != OpConvert {
		return shard.Exts()
	}
	return append([]string{".sam"}, shard.Exts()...)
}

// DecodeSpec parses and validates a JSON job spec. Unknown fields are
// rejected — a misspelled option silently ignored is worse than an
// error.
func DecodeSpec(data []byte) (Spec, error) {
	var spec Spec
	if len(data) == 0 {
		return spec, fmt.Errorf("engine: empty job spec")
	}
	if len(data) > MaxSpecLen {
		return spec, fmt.Errorf("engine: job spec exceeds %d bytes", MaxSpecLen)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("engine: decoding job spec: %w", err)
	}
	if dec.More() {
		return spec, fmt.Errorf("engine: trailing data after job spec")
	}
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	return spec, nil
}

// Validate normalizes defaults and pins the spec invariants. It does
// not touch the filesystem. Validation is a fixed point: validating a
// valid spec again changes nothing.
func (s *Spec) Validate() error {
	if s.Op == "" {
		s.Op = OpConvert
	}
	switch s.Op {
	case OpConvert, OpSort, OpFlagstat, OpHist, OpPeaks, OpNLMeans, OpFDR:
	default:
		return fmt.Errorf("engine: unknown op %q", s.Op)
	}
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"ranks", s.Ranks, maxRanks}, {"shards", s.Shards, maxShards}, {"sims", s.Sims, maxSims},
		{"r", s.R, maxWindow}, {"l", s.L, maxWindow},
	} {
		if f.v < 0 || f.v > f.max {
			return fmt.Errorf("engine: %s %d outside [0, %d]", f.name, f.v, f.max)
		}
	}
	if math.IsNaN(s.Sigma) || math.IsInf(s.Sigma, 0) || math.IsNaN(s.PT) || math.IsInf(s.PT, 0) {
		return fmt.Errorf("engine: sigma %g and pt %g must be finite numbers", s.Sigma, s.PT)
	}
	if s.Op != OpNLMeans {
		s.R, s.L, s.Sigma = 0, 0, 0
	}
	if s.Op != OpFDR {
		s.PT = 0
	}
	if s.BinSize < 0 {
		return fmt.Errorf("engine: negative bin size %d", s.BinSize)
	}
	kind, err := s.ConverterKind()
	if err != nil && (s.Op == OpConvert || !s.autoConverter()) {
		return err
	}
	if s.InputPath != "" && s.InputName != "" {
		return fmt.Errorf("engine: input_path and input_name are mutually exclusive")
	}
	if s.InputName != "" {
		if s.InputName != path.Base(s.InputName) || s.InputName == "." || s.InputName == ".." {
			return fmt.Errorf("engine: input_name %q must be a bare filename", s.InputName)
		}
	}
	if s.Region != "" {
		if s.Op != OpConvert {
			return fmt.Errorf("engine: op %s does not take region", s.Op)
		}
		if _, err := conv.ParseRegion(s.Region); err != nil {
			return err
		}
	}
	for _, c := range s.Candidates {
		if c != c { // NaN breaks the FDR sweep's comparisons
			return fmt.Errorf("engine: NaN candidate threshold")
		}
	}
	switch s.Op {
	case OpConvert:
		switch {
		case s.WritesContainer() && s.Region != "":
			return fmt.Errorf("engine: format %s rewrites the whole input and takes no region", s.Format)
		case s.Format == "pamx" && (kind == "sam" || kind == "psam"):
			return fmt.Errorf("engine: format pamx needs a container input (%s), not SAM", strings.Join(shard.Exts(), ", "))
		case kind == "sam" && s.Region != "":
			return fmt.Errorf("engine: converter sam reads SAM text, which has no index for a region; use converter psam")
		case s.Format != "" && s.Format != "bam" && !s.WritesContainer():
			// Every other target must be in the format registry.
			// Catching a typo here beats a doomed job.
			if _, err := formats.New(s.Format); err != nil {
				return fmt.Errorf("engine: %w", err)
			}
		}
	case OpHist, OpPeaks:
		if s.RName == "" {
			return fmt.Errorf("engine: op %s requires rname", s.Op)
		}
		if s.BinSize == 0 {
			s.BinSize = 100
		}
		if s.Op == OpPeaks && len(s.Candidates) == 0 {
			return fmt.Errorf("engine: op peaks requires candidates")
		}
	case OpNLMeans:
		if s.R < 1 || !(s.Sigma > 0) {
			return fmt.Errorf("engine: op nlmeans requires r ≥ 1 and sigma > 0, not r %d sigma %g", s.R, s.Sigma)
		}
	}
	if s.Sims == 0 && (s.Op == OpPeaks || s.Op == OpFDR) {
		s.Sims = 8
	}
	return nil
}

// InputBase is the input's filename: the name a spooled upload is
// stored under, and the extension every auto-detection reads.
func (s *Spec) InputBase() string {
	if s.InputPath != "" {
		return path.Base(s.InputPath)
	}
	if s.InputName != "" {
		return s.InputName
	}
	return "input.sam"
}

// WritesContainer reports a bamx or pamx target: one container (or,
// from SAM, one BAMX pair per rank) rather than a file per rank.
func (s *Spec) WritesContainer() bool { return s.Format == "bamx" || s.Format == "pamx" }

// autoConverter reports whether the converter goes by extension.
func (s *Spec) autoConverter() bool { return s.Converter == "" || s.Converter == "auto" }

// ConverterKind resolves Converter against the input filename: an
// explicit kind wins, auto (or "") goes by extension.
func (s *Spec) ConverterKind() (string, error) {
	name := s.InputBase()
	for _, k := range kinds {
		if s.Converter == k.name || s.autoConverter() && k.ext != "" && strings.HasSuffix(name, k.ext) {
			return k.name, nil
		}
	}
	if s.autoConverter() {
		return "", fmt.Errorf("engine: cannot infer converter for %q; set converter", name)
	}
	return "", fmt.Errorf("engine: unknown converter %q", s.Converter)
}
