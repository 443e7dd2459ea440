package formats

import (
	"encoding/json"
	"strings"
	"testing"

	"parseq/internal/sam"
	"parseq/internal/simdata"
)

func testHeader() *sam.Header {
	return sam.NewHeader(
		sam.Reference{Name: "chr1", Length: 1000000},
		sam.Reference{Name: "chr2", Length: 500000},
	)
}

func rec(t *testing.T, line string) *sam.Record {
	t.Helper()
	r, err := sam.ParseRecord(line)
	if err != nil {
		t.Fatalf("ParseRecord: %v", err)
	}
	return &r
}

const fwdLine = "r001\t99\tchr1\t7\t30\t10M\t=\t37\t39\tTTAGATAAAG\tIIIIIIIIIA\tNM:i:2"
const revLine = "r002\t147\tchr1\t40\t29\t10M\t=\t7\t-43\tCGATCGATCA\tABCDEFGHIJ"
const unmappedLine = "r003\t4\t*\t0\t0\t*\t*\t0\t0\tACGTA\tIIIII"
const secondaryLine = "r004\t256\tchr1\t50\t0\t5M\t*\t0\t0\tACGTA\tIIIII"

func TestRegistry(t *testing.T) {
	names := Names()
	// Every built-in must be present (tests may Register extras).
	want := []string{"bed", "bedgraph", "fasta", "fastq", "json", "sam", "yaml"}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("built-in %q missing from Names = %v", w, names)
		}
	}
	for _, n := range names {
		enc, err := New(n)
		if err != nil {
			t.Errorf("New(%q): %v", n, err)
			continue
		}
		if enc.Name() != n {
			t.Errorf("New(%q).Name() = %q", n, enc.Name())
		}
		if !strings.HasPrefix(enc.Extension(), ".") {
			t.Errorf("%s extension = %q", n, enc.Extension())
		}
	}
	if _, err := New("nope"); err == nil {
		t.Error("New(nope) succeeded")
	}
	if enc, err := New("BED"); err != nil || enc.Name() != "bed" {
		t.Errorf("New is not case-insensitive: %v %v", enc, err)
	}
}

func encode(t *testing.T, encName string, r *sam.Record) string {
	t.Helper()
	enc, err := New(encName)
	if err != nil {
		t.Fatal(err)
	}
	out, err := enc.Encode(nil, r, testHeader())
	if err != nil {
		t.Fatalf("%s Encode: %v", encName, err)
	}
	return string(out)
}

func TestSAMEncoder(t *testing.T) {
	if got := encode(t, "sam", rec(t, fwdLine)); got != fwdLine+"\n" {
		t.Errorf("sam = %q", got)
	}
	h := testHeader()
	if got := string((SAM{}).Header(h)); got != h.String() {
		t.Errorf("sam header = %q", got)
	}
	if got := (SAM{}).Header(nil); got != nil {
		t.Errorf("sam nil header = %q", got)
	}
}

func TestBEDEncoder(t *testing.T) {
	if got := encode(t, "bed", rec(t, fwdLine)); got != "chr1\t6\t16\tr001\t30\t+\n" {
		t.Errorf("bed fwd = %q", got)
	}
	if got := encode(t, "bed", rec(t, revLine)); got != "chr1\t39\t49\tr002\t29\t-\n" {
		t.Errorf("bed rev = %q", got)
	}
	if got := encode(t, "bed", rec(t, unmappedLine)); got != "" {
		t.Errorf("bed unmapped = %q, want skip", got)
	}
}

func TestBEDGraphEncoder(t *testing.T) {
	if got := encode(t, "bedgraph", rec(t, fwdLine)); got != "chr1\t6\t16\t1\n" {
		t.Errorf("bedgraph = %q", got)
	}
	if got := encode(t, "bedgraph", rec(t, unmappedLine)); got != "" {
		t.Errorf("bedgraph unmapped = %q, want skip", got)
	}
	if got := string((BEDGraph{}).Header(nil)); got != "track type=bedGraph\n" {
		t.Errorf("bedgraph header = %q", got)
	}
	// BEDGRAPH must be the shortest per-record output (the paper's
	// explanation for its superior scaling in Figure 6).
	bg := encode(t, "bedgraph", rec(t, fwdLine))
	bed := encode(t, "bed", rec(t, fwdLine))
	fa := encode(t, "fasta", rec(t, fwdLine))
	if len(bg) >= len(bed) || len(bg) >= len(fa) {
		t.Errorf("bedgraph (%d) not shorter than bed (%d) and fasta (%d)",
			len(bg), len(bed), len(fa))
	}
}

func TestFASTAEncoder(t *testing.T) {
	if got := encode(t, "fasta", rec(t, fwdLine)); got != ">r001/1\nTTAGATAAAG\n" {
		t.Errorf("fasta fwd = %q", got)
	}
	// Reverse-strand read is reverse-complemented back to read orientation.
	if got := encode(t, "fasta", rec(t, revLine)); got != ">r002/2\nTGATCGATCG\n" {
		t.Errorf("fasta rev = %q", got)
	}
	// Unmapped reads still have sequence: not skipped.
	if got := encode(t, "fasta", rec(t, unmappedLine)); got != ">r003\nACGTA\n" {
		t.Errorf("fasta unmapped = %q", got)
	}
	if got := encode(t, "fasta", rec(t, secondaryLine)); got != "" {
		t.Errorf("fasta secondary = %q, want skip", got)
	}
}

func TestFASTQEncoder(t *testing.T) {
	if got := encode(t, "fastq", rec(t, fwdLine)); got != "@r001/1\nTTAGATAAAG\n+\nIIIIIIIIIA\n" {
		t.Errorf("fastq fwd = %q", got)
	}
	// Reverse: sequence reverse-complemented, qualities reversed.
	if got := encode(t, "fastq", rec(t, revLine)); got != "@r002/2\nTGATCGATCG\n+\nJIHGFEDCBA\n" {
		t.Errorf("fastq rev = %q", got)
	}
	// Missing qualities become '!' runs.
	noQual := rec(t, "r9\t0\tchr1\t5\t1\t4M\t*\t0\t0\tACGT\t*")
	if got := encode(t, "fastq", noQual); got != "@r9\nACGT\n+\n!!!!\n" {
		t.Errorf("fastq noqual = %q", got)
	}
	// No sequence at all: skipped.
	noSeq := rec(t, "r9\t0\tchr1\t5\t1\t*\t*\t0\t0\t*\t*")
	if got := encode(t, "fastq", noSeq); got != "" {
		t.Errorf("fastq noseq = %q, want skip", got)
	}
}

func TestJSONEncoderIsValidJSON(t *testing.T) {
	for _, line := range []string{fwdLine, revLine, unmappedLine} {
		out := encode(t, "json", rec(t, line))
		if !strings.HasSuffix(out, "\n") {
			t.Fatalf("json output not newline-terminated: %q", out)
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(out), &m); err != nil {
			t.Fatalf("invalid JSON for %q: %v\n%s", line, err, out)
		}
		r := rec(t, line)
		if m["qname"] != r.QName {
			t.Errorf("qname = %v", m["qname"])
		}
		if int(m["pos"].(float64)) != int(r.Pos) {
			t.Errorf("pos = %v", m["pos"])
		}
		if m["cigar"] != r.Cigar.String() {
			t.Errorf("cigar = %v", m["cigar"])
		}
	}
}

func TestJSONEncoderTags(t *testing.T) {
	out := encode(t, "json", rec(t, fwdLine))
	var m map[string]any
	if err := json.Unmarshal([]byte(out), &m); err != nil {
		t.Fatal(err)
	}
	tags, ok := m["tags"].(map[string]any)
	if !ok {
		t.Fatalf("tags = %T", m["tags"])
	}
	if tags["NM"] != float64(2) {
		t.Errorf("NM = %v, want numeric 2", tags["NM"])
	}
}

func TestJSONStringEscaping(t *testing.T) {
	r := rec(t, fwdLine)
	r.QName = `we"ird\name` + string(rune(1))
	out := encode(t, "json", r)
	var m map[string]any
	if err := json.Unmarshal([]byte(out), &m); err != nil {
		t.Fatalf("escaping broke JSON: %v\n%s", err, out)
	}
	if m["qname"] != r.QName {
		t.Errorf("qname = %q, want %q", m["qname"], r.QName)
	}
}

func TestYAMLEncoderShape(t *testing.T) {
	out := encode(t, "yaml", rec(t, fwdLine))
	if !strings.HasPrefix(out, "- qname: ") {
		t.Errorf("yaml = %q", out)
	}
	for _, key := range []string{"flag: 99", "rname: chr1", "pos: 7", "cigar: 10M", `rnext: "="`, "NM: "} {
		if !strings.Contains(out, key) {
			t.Errorf("yaml missing %q:\n%s", key, out)
		}
	}
	// SAM's special "*" values must be quoted so YAML does not read an alias.
	un := encode(t, "yaml", rec(t, unmappedLine))
	if !strings.Contains(un, `rname: "*"`) {
		t.Errorf("yaml unmapped rname not quoted:\n%s", un)
	}
}

func TestYAMLPlainSafe(t *testing.T) {
	cases := []struct {
		s    string
		safe bool
	}{
		{"chr1", true},
		{"r001", true},
		{"*", false},
		{"=", false},
		{"", false},
		{"7", false},
		{"-5", false},
		{"has space", false},
		{"колон:pair", false},
		{"a#comment", false},
	}
	for _, tc := range cases {
		if got := yamlPlainSafe(tc.s); got != tc.safe {
			t.Errorf("yamlPlainSafe(%q) = %v, want %v", tc.s, got, tc.safe)
		}
	}
}

// Conversions over a realistic generated dataset must never error, and
// line-oriented outputs must be concatenable (ends with newline).
func TestAllEncodersOverGeneratedData(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(300))
	for _, name := range Names() {
		enc, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		for i := range d.Records {
			out, err = enc.Encode(out, &d.Records[i], d.Header)
			if err != nil {
				t.Fatalf("%s record %d: %v", name, i, err)
			}
		}
		if len(out) == 0 {
			t.Fatalf("%s produced no output over 300 records", name)
		}
		if out[len(out)-1] != '\n' {
			t.Errorf("%s output does not end in newline", name)
		}
	}
}

type testEncoder struct{}

func (testEncoder) Name() string              { return "testenc" }
func (testEncoder) Extension() string         { return ".tst" }
func (testEncoder) Header(*sam.Header) []byte { return nil }
func (testEncoder) Encode(dst []byte, rec *sam.Record, h *sam.Header) ([]byte, error) {
	return append(dst, 'x', '\n'), nil
}

func TestRegister(t *testing.T) {
	if err := Register("testenc", func() Encoder { return testEncoder{} }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	enc, err := New("TESTENC")
	if err != nil {
		t.Fatalf("New after Register: %v", err)
	}
	out, err := enc.Encode(nil, rec(t, fwdLine), testHeader())
	if err != nil || string(out) != "x\n" {
		t.Errorf("custom Encode = %q, %v", out, err)
	}
	// Duplicate and built-in registrations are rejected.
	if err := Register("testenc", func() Encoder { return testEncoder{} }); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := Register("bed", func() Encoder { return testEncoder{} }); err == nil {
		t.Error("built-in override accepted")
	}
	if err := Register("", func() Encoder { return testEncoder{} }); err == nil {
		t.Error("empty name accepted")
	}
	if err := Register("other", nil); err == nil {
		t.Error("nil factory accepted")
	}
	found := false
	for _, n := range Names() {
		if n == "testenc" {
			found = true
		}
	}
	if !found {
		t.Error("registered format missing from Names")
	}
}
