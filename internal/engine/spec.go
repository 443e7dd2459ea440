// Package engine is parseq's one job surface: a Spec says what to run
// (convert, sort, flagstat, hist or peaks, with every option a client
// may set), an Env says where (the resolved input, the output
// destination, the rank world), and Run routes the pair onto the
// conv/pamx/sorter/flagstat/hist/peaks libraries. seqconvd decodes a
// Spec from JSON; seqconvert, samsort, samstat, ngsstat and ngsbench
// fill one from flags; both call Run, so a job means the same thing —
// same converter inference, same output names, same bytes — whichever
// front end described it.
package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path"
	"strings"

	"parseq/internal/conv"
	"parseq/internal/formats"
	"parseq/internal/shard"
)

// Ops Run executes. Convert is the format converter; the rest are the
// analysis engines on the same substrate.
const (
	OpConvert  = "convert"
	OpSort     = "sort"
	OpFlagstat = "flagstat"
	OpHist     = "hist"
	OpPeaks    = "peaks"
)

// Spec is the client-facing description of one job, and seqconvd's JSON
// wire format. Every field is optional except Op ("" defaults to
// "convert"); Validate pins the invariants.
type Spec struct {
	// Op selects the engine: convert, sort, flagstat, hist or peaks.
	Op string `json:"op,omitempty"`
	// Converter picks the converter instance for Op=convert: auto (by
	// input extension), sam, bam, psam, bamx, bamz or pamx.
	Converter string `json:"converter,omitempty"`
	// Format is the conversion target format (sam, bam, bed, ...; ""
	// means sam). The pamx converter has one target per direction and
	// takes none — except that a .pamx input naming a text format is
	// converted to it like any other record container.
	Format string `json:"format,omitempty"`
	// Ranks is the rank count: in-process goroutine ranks by default,
	// or — when Env.Launch is a distributed launcher — the world size.
	// 0 means 1.
	Ranks int `json:"ranks,omitempty"`
	// CodecWorkers and ParseWorkers are the BGZF codec goroutines per
	// stream (convert, sort) and the per-rank parse/encode goroutines of
	// SAM text conversion (0 adaptive, 1 sequential).
	CodecWorkers int `json:"codec_workers,omitempty"`
	ParseWorkers int `json:"parse_workers,omitempty"`
	// Region restricts conversion to one chromosome region
	// ("chr1:100-200"; .bamx, .bamz and .pamx→text conversions only).
	Region string `json:"region,omitempty"`
	// InputPath names the input file. Empty means the caller resolves
	// the input itself (Env.Input — seqconvd's streamed uploads); then
	// InputName supplies the filename whose extension drives
	// auto-detection.
	InputPath string `json:"input_path,omitempty"`
	InputName string `json:"input_name,omitempty"`
	// Shards and Workers tune the region-parallel analyses (flagstat,
	// hist, peaks over .bam/.bamx/.pamx inputs): shard generation goal
	// and per-rank worker goroutines. 0 picks the adaptive defaults.
	Shards  int `json:"shards,omitempty"`
	Workers int `json:"workers,omitempty"`
	// RName and BinSize select the reference and bin width for hist and
	// peaks.
	RName   string `json:"rname,omitempty"`
	BinSize int    `json:"bin,omitempty"`
	// Sims, Seed and Candidates configure peak calling: simulation
	// dataset count and seed for the synthetic background, and the
	// candidate thresholds the FDR selection sweeps.
	Sims       int       `json:"sims,omitempty"`
	Seed       int64     `json:"seed,omitempty"`
	Candidates []float64 `json:"candidates,omitempty"`
}

// Limits bound the numeric fields so a hostile spec cannot ask for
// absurd worlds or shard counts. MaxSpecLen caps the encoded spec.
const (
	maxRanks   = 1024
	maxWorkers = 1024
	maxShards  = 1 << 16
	maxSims    = 1 << 12
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
	case OpConvert, OpSort, OpFlagstat, OpHist, OpPeaks:
	default:
		return fmt.Errorf("engine: unknown op %q", s.Op)
	}
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"ranks", s.Ranks, maxRanks}, {"codec_workers", s.CodecWorkers, maxWorkers},
		{"parse_workers", s.ParseWorkers, maxWorkers}, {"workers", s.Workers, maxWorkers},
		{"shards", s.Shards, maxShards}, {"sims", s.Sims, maxSims},
	} {
		if f.v < 0 || f.v > f.max {
			return fmt.Errorf("engine: %s %d outside [0, %d]", f.name, f.v, f.max)
		}
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
		// The columnar rewrites have one target per direction and no
		// partial conversion; they used to drop both options silently.
		if kind == "pamx" && !s.pamxToText() && s.Format != "" {
			return fmt.Errorf("engine: converter pamx does not take format %q (.bam/.bamx convert to PAMX, .pamx to BAM or a text format)", s.Format)
		}
		if kind == "pamx" && !s.pamxToText() && s.Region != "" {
			return fmt.Errorf("engine: converter pamx takes region only from .pamx to a text format")
		}
		if s.Format != "" && s.Format != "bam" {
			// "bam" is the converter's binary special case; every other
			// target must be in the format registry. Catching a typo here
			// beats a doomed job.
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
		if s.Op == OpHist {
			break
		}
		if s.Sims == 0 {
			s.Sims = 8
		}
		if len(s.Candidates) == 0 {
			return fmt.Errorf("engine: op peaks requires candidates")
		}
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

// pamxToText reports a .pamx input that names a text format: a record
// container to convert, not the columnar rewrite back to BAM.
func (s *Spec) pamxToText() bool {
	return strings.HasSuffix(s.InputBase(), ".pamx") && s.Format != "" && s.Format != "bam"
}

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
