package sam

import (
	"strings"
	"testing"
	"testing/quick"
)

const sampleLine = "r001\t99\tchr1\t7\t30\t8M2I4M1D3M\t=\t37\t39\tTTAGATAAAGGATACTG\tIIIIIIIIIIIIIIIII\tNM:i:2\tRG:Z:grp1"

func TestParseRecordMandatoryFields(t *testing.T) {
	r, err := ParseRecord(sampleLine)
	if err != nil {
		t.Fatalf("ParseRecord: %v", err)
	}
	if r.QName != "r001" {
		t.Errorf("QName = %q, want r001", r.QName)
	}
	if r.Flag != 99 {
		t.Errorf("Flag = %d, want 99", r.Flag)
	}
	if r.RName != "chr1" {
		t.Errorf("RName = %q, want chr1", r.RName)
	}
	if r.Pos != 7 {
		t.Errorf("Pos = %d, want 7", r.Pos)
	}
	if r.MapQ != 30 {
		t.Errorf("MapQ = %d, want 30", r.MapQ)
	}
	if got := r.Cigar.String(); got != "8M2I4M1D3M" {
		t.Errorf("Cigar = %q, want 8M2I4M1D3M", got)
	}
	if r.RNext != "=" || r.PNext != 37 || r.TLen != 39 {
		t.Errorf("mate fields = %q %d %d", r.RNext, r.PNext, r.TLen)
	}
	if len(r.Seq) != 17 || len(r.Qual) != 17 {
		t.Errorf("SEQ/QUAL lengths = %d/%d, want 17/17", len(r.Seq), len(r.Qual))
	}
	if len(r.Tags) != 2 {
		t.Fatalf("Tags = %d, want 2", len(r.Tags))
	}
	nm, ok := r.Tag("NM")
	if !ok {
		t.Fatal("NM tag missing")
	}
	if v, err := nm.Int(); err != nil || v != 2 {
		t.Errorf("NM = %d (%v), want 2", v, err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r, err := ParseRecord(sampleLine)
	if err != nil {
		t.Fatalf("ParseRecord: %v", err)
	}
	if got := r.String(); got != sampleLine {
		t.Errorf("round trip:\n got %q\nwant %q", got, sampleLine)
	}
}

func TestRecordNegativeTLenRoundTrip(t *testing.T) {
	line := strings.Replace(sampleLine, "\t39\t", "\t-39\t", 1)
	r, err := ParseRecord(line)
	if err != nil {
		t.Fatalf("ParseRecord: %v", err)
	}
	if r.TLen != -39 {
		t.Fatalf("TLen = %d, want -39", r.TLen)
	}
	if got := r.String(); got != line {
		t.Errorf("round trip:\n got %q\nwant %q", got, line)
	}
}

func TestParseRecordUnmapped(t *testing.T) {
	line := "r9\t4\t*\t0\t0\t*\t*\t0\t0\tACGT\tIIII"
	r, err := ParseRecord(line)
	if err != nil {
		t.Fatalf("ParseRecord: %v", err)
	}
	if !r.Unmapped() {
		t.Error("Unmapped() = false, want true")
	}
	if r.Cigar != nil {
		t.Errorf("Cigar = %v, want nil", r.Cigar)
	}
	if got := r.String(); got != line {
		t.Errorf("round trip = %q", got)
	}
}

func TestParseRecordErrors(t *testing.T) {
	cases := []struct {
		name string
		line string
	}{
		{"empty", ""},
		{"too few fields", "r1\t0\tchr1"},
		{"bad flag", "r1\tx\tchr1\t1\t0\t*\t*\t0\t0\tA\tI"},
		{"bad pos", "r1\t0\tchr1\t-1\t0\t*\t*\t0\t0\tA\tI"},
		{"pos overflow", "r1\t0\tchr1\t99999999999\t0\t*\t*\t0\t0\tA\tI"},
		{"bad mapq", "r1\t0\tchr1\t1\t300\t*\t*\t0\t0\tA\tI"},
		{"bad cigar", "r1\t0\tchr1\t1\t0\t4Q\t*\t0\t0\tACGT\tIIII"},
		{"cigar trailing len", "r1\t0\tchr1\t1\t0\t4M2\t*\t0\t0\tACGT\tIIII"},
		{"seq/qual mismatch", "r1\t0\tchr1\t1\t0\t*\t*\t0\t0\tACGT\tII"},
		{"bad tag", "r1\t0\tchr1\t1\t0\t*\t*\t0\t0\tA\tI\tNM"},
		{"bad tag type", "r1\t0\tchr1\t1\t0\t*\t*\t0\t0\tA\tI\tNM:q:2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseRecord(tc.line); err == nil {
				t.Errorf("ParseRecord(%q) succeeded, want error", tc.line)
			}
		})
	}
}

func TestRecordEnd(t *testing.T) {
	r, err := ParseRecord(sampleLine)
	if err != nil {
		t.Fatal(err)
	}
	// 8M + 4M + 1D + 3M consume reference; 2I does not: 16 reference bases.
	if got := r.End(); got != 7+16-1 {
		t.Errorf("End = %d, want %d", got, 7+16-1)
	}
	unmapped, _ := ParseRecord("r9\t4\t*\t0\t0\t*\t*\t0\t0\tA\tI")
	if got := unmapped.End(); got != 0 {
		t.Errorf("unmapped End = %d, want 0", got)
	}
}

func TestMateRName(t *testing.T) {
	r, _ := ParseRecord(sampleLine)
	if got := r.MateRName(); got != "chr1" {
		t.Errorf("MateRName = %q, want chr1 (= resolution)", got)
	}
	r.RNext = "chr2"
	if got := r.MateRName(); got != "chr2" {
		t.Errorf("MateRName = %q, want chr2", got)
	}
}

func TestParseRecordInto_ReusesTags(t *testing.T) {
	var r Record
	if err := ParseRecordIntoBytes(&r, []byte(sampleLine)); err != nil {
		t.Fatal(err)
	}
	if len(r.Tags) != 2 {
		t.Fatalf("Tags = %d, want 2", len(r.Tags))
	}
	// Re-parsing a tagless line must clear old tags.
	if err := ParseRecordIntoBytes(&r, []byte("r9\t4\t*\t0\t0\t*\t*\t0\t0\tA\tI")); err != nil {
		t.Fatal(err)
	}
	if len(r.Tags) != 0 {
		t.Errorf("Tags after reuse = %d, want 0", len(r.Tags))
	}
}

func TestReverseComplement(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"A", "T"},
		{"ACGT", "ACGT"},
		{"AACC", "GGTT"},
		{"acgt", "acgt"},
		{"ANNT", "ANNT"},
		{"RYSWKM", "KMWSRY"},
	}
	for _, tc := range cases {
		if got := ReverseComplement(tc.in); got != tc.want {
			t.Errorf("ReverseComplement(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(seq []byte) bool {
		// Restrict to unambiguous bases where complement is an involution.
		const bases = "ACGT"
		s := make([]byte, len(seq))
		for i, b := range seq {
			s[i] = bases[int(b)%4]
		}
		return ReverseComplement(ReverseComplement(string(s))) == string(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverse(t *testing.T) {
	if got := Reverse("abc"); got != "cba" {
		t.Errorf("Reverse = %q", got)
	}
	if got := Reverse(""); got != "" {
		t.Errorf("Reverse empty = %q", got)
	}
}

// Property: formatting then reparsing any parseable record is the identity.
func TestRecordRoundTripProperty(t *testing.T) {
	f := func(qname uint32, flag uint16, pos int32, mapq uint8, tlen int32, n uint8) bool {
		if pos < 0 {
			pos = -pos
		}
		if pos == 0 {
			pos = 1
		}
		seqLen := int(n%50) + 1
		seq := strings.Repeat("A", seqLen)
		qual := strings.Repeat("I", seqLen)
		r := Record{
			QName: "q" + strings.Repeat("x", int(qname%8)),
			Flag:  Flag(flag),
			RName: "chr1",
			Pos:   pos % (1 << 29),
			MapQ:  mapq,
			Cigar: Cigar{NewCigarOp(CigarMatch, seqLen)},
			RNext: "*",
			PNext: 0,
			TLen:  tlen % (1 << 29),
			Seq:   seq,
			Qual:  qual,
		}
		got, err := ParseRecord(r.String())
		if err != nil {
			return false
		}
		return got.String() == r.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
