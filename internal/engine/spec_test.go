package engine

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The decode tables and FuzzJobSpec that pin the JSON surface itself
// live in internal/daemon (spec_test.go), where the wire format is
// served; the rows here pin what Validate adds on top of it.

// TestValidateRejectsUnhonouredOptions: an option a job cannot honour
// is an error naming the field, refused before a daemon spools an
// upload for it, never dropped on the floor. A container format is a
// whole-file rewrite of a container input, so it takes no region and
// pamx takes no SAM; the SAM converter has no index for a region; and
// only convert reads one at all.
func TestValidateRejectsUnhonouredOptions(t *testing.T) {
	cases := []struct {
		name, in, field string
	}{
		{"pamx converter with region", `{"format":"pamx","region":"chr1:1-100","input_name":"a.bam"}`, "region"},
		{"pamx by extension with region", `{"format":"pamx","region":"chr1:1-100","input_name":"a.pamx"}`, "region"},
		{"pamx converter with format", `{"converter":"psam","format":"pamx","input_name":"a.sam"}`, "format"},
		{"pamx by extension with format", `{"format":"pamx","input_name":"a.sam"}`, "format"},
		{"bamx format with region", `{"format":"bamx","region":"chr1:1-100","input_name":"a.bam"}`, "region"},
		{"bamx format from SAM with region", `{"format":"bamx","region":"chr1","converter":"psam","input_name":"a.sam"}`, "region"},
		{"region on sam", `{"format":"bed","region":"chr1:1-100","input_name":"a.sam"}`, "region"},
		{"region on sam by default", `{"region":"chr1"}`, "region"},
		{"region on flagstat", `{"op":"flagstat","region":"chr1:1-100"}`, "region"},
		{"region on hist", `{"op":"hist","rname":"chr1","region":"chr1:1-100"}`, "region"},
		{"region on peaks", `{"op":"peaks","rname":"chr1","candidates":[1],"region":"chr1"}`, "region"},
		{"region on sort", `{"op":"sort","region":"chr1"}`, "region"},
		{"uninferrable converter", `{"input_name":"reads.txt"}`, "converter"},
		{"unknown converter on an analysis", `{"op":"flagstat","converter":"xam"}`, "converter"},
		// Ranks is a job's one parallelism setting; every worker count
		// under it is the adaptive rule.
		{"codec workers", `{"codec_workers":2,"input_name":"a.bam"}`, "codec_workers"},
		{"parse workers", `{"parse_workers":2,"input_name":"a.sam"}`, "parse_workers"},
		{"shard workers", `{"op":"flagstat","workers":2,"input_name":"a.bamx"}`, "workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSpec([]byte(tc.in))
			if err == nil {
				t.Fatalf("DecodeSpec(%s) accepted", tc.in)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name %q", err, tc.field)
			}
		})
	}
	// What the converters do honour still passes, as does an analysis
	// over a name no converter could be inferred from.
	for _, in := range []string{
		`{"region":"chr1:1-100","input_name":"a.bamx"}`,
		`{"region":"chr1:1-100","input_name":"a.bamz","format":"bed"}`,
		`{"region":"chr1:1-100","input_name":"a.bam","format":"bed"}`,
		`{"region":"chr1:1-100","converter":"psam","input_name":"a.sam"}`,
		`{"format":"pamx","input_name":"a.bam"}`,
		`{"format":"bamx","input_name":"a.pamx"}`,
		`{"format":"bamx","ranks":3,"input_name":"a.sam"}`,
		`{"format":"bam","input_name":"a.pamx"}`,
		`{"format":"sam","input_name":"a.pamx"}`,
		`{"format":"bed","region":"chr1:1-100","converter":"pamx","input_name":"a.pamx"}`,
		`{"op":"flagstat","input_name":"reads.dat"}`,
	} {
		if _, err := DecodeSpec([]byte(in)); err != nil {
			t.Errorf("DecodeSpec(%s): %v", in, err)
		}
	}
}

// Run validates too: a spec built in Go gets the same refusal, before
// any file is touched.
func TestRunRejectsUnhonouredOptions(t *testing.T) {
	dir := t.TempDir()
	_, err := Run(Spec{Format: "pamx", Region: "chr1", InputPath: filepath.Join(dir, "missing.bam")}, Env{OutDir: dir})
	if err == nil || !strings.Contains(err.Error(), "region") {
		t.Fatalf("Run error = %v, want one naming region", err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("refused job left %d files", len(left))
	}
}

func TestKindTableHelp(t *testing.T) {
	if got, want := Converters(), []string{"auto", "sam", "bam", "bamx", "bamz", "pamx", "psam"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Converters() = %v, want %v", got, want)
	}
	if got, want := InputExts(OpConvert), []string{".sam", ".bam", ".bamx", ".bamz", ".pamx"}; !reflect.DeepEqual(got, want) {
		t.Errorf("InputExts(convert) = %v, want %v", got, want)
	}
	if got, want := InputExts(OpFlagstat), []string{".bam", ".bamx", ".bamz", ".pamx"}; !reflect.DeepEqual(got, want) {
		t.Errorf("InputExts(flagstat) = %v, want %v", got, want)
	}
	// Every name the table offers must validate and resolve to itself.
	for _, name := range Converters()[1:] {
		s := Spec{Converter: name}
		if kind, err := s.ConverterKind(); err != nil || kind != name {
			t.Errorf("ConverterKind(%q) = %q, %v", name, kind, err)
		}
	}
}

// The statistics parameters: JSON cannot spell a NaN or infinite sigma
// or pt, but a spec built in Go can, and Validate refuses it on every
// op; on an op that does not read them they are cleared, so ngsstat's
// flag defaults do not make two specs of one hist job.
func TestValidateStatisticsParameters(t *testing.T) {
	for _, s := range []Spec{
		{Op: OpNLMeans, R: 20, Sigma: math.NaN()},
		{Op: OpNLMeans, R: 20, Sigma: math.Inf(1)},
		{Op: OpFDR, PT: math.NaN()},
		{Op: OpFDR, PT: math.Inf(-1)},
		{Op: OpHist, RName: "chr1", PT: math.NaN()},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("%s with sigma %g pt %g accepted", s.Op, s.Sigma, s.PT)
		}
	}
	s := Spec{Op: OpHist, RName: "chr1", R: 20, L: 15, Sigma: 10, PT: 1}
	if err := s.Validate(); err != nil || s.R != 0 || s.L != 0 || s.Sigma != 0 || s.PT != 0 {
		t.Errorf("hist spec after Validate: %+v, %v", s, err)
	}
	s = Spec{Op: OpNLMeans, R: 20, L: 0, Sigma: 10, PT: 1}
	if err := s.Validate(); err != nil || s.R != 20 || s.Sigma != 10 || s.PT != 0 {
		t.Errorf("nlmeans spec after Validate: %+v, %v", s, err)
	}
}
