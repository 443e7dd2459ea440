package engine

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The decode tables and FuzzJobSpec that pin the JSON surface itself
// live in internal/daemon (spec_test.go), where the wire format is
// served; the rows here pin what Validate adds on top of it.

// TestValidateRejectsUnhonouredOptions: -converter pamx used to drop
// region and format on the floor, and every op but convert accepted a
// region it never read. Each is now an error naming the field — except
// what became honourable since: a .pamx input naming a text format is a
// record container like any other, region included.
func TestValidateRejectsUnhonouredOptions(t *testing.T) {
	cases := []struct {
		name, in, field string
	}{
		{"pamx converter with region", `{"converter":"pamx","region":"chr1:1-100","input_name":"a.bam"}`, "region"},
		{"pamx by extension with region", `{"region":"chr1:1-100","input_name":"a.pamx"}`, "region"},
		{"pamx converter with format", `{"converter":"pamx","format":"bed","input_name":"a.bamx"}`, "format"},
		{"pamx by extension with format", `{"format":"bam","input_name":"a.pamx"}`, "format"},
		{"region on flagstat", `{"op":"flagstat","region":"chr1:1-100"}`, "region"},
		{"region on hist", `{"op":"hist","rname":"chr1","region":"chr1:1-100"}`, "region"},
		{"region on peaks", `{"op":"peaks","rname":"chr1","candidates":[1],"region":"chr1"}`, "region"},
		{"region on sort", `{"op":"sort","region":"chr1"}`, "region"},
		{"uninferrable converter", `{"input_name":"reads.txt"}`, "converter"},
		{"unknown converter on an analysis", `{"op":"flagstat","converter":"xam"}`, "converter"},
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
		`{"region":"chr1:1-100","converter":"psam","input_name":"a.sam"}`,
		`{"converter":"pamx","codec_workers":2,"input_name":"a.bam"}`,
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
	_, err := Run(Spec{Converter: "pamx", Region: "chr1", InputPath: filepath.Join(dir, "missing.bam")}, Env{OutDir: dir})
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
