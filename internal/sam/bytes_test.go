package sam

import (
	"reflect"
	"testing"
)

// byteLines covers the renderer's branches: mapped/unmapped, negative
// TLEN, empty CIGAR, '\r'-free tags, multiple tag types.
var byteLines = []string{
	"r001\t99\tchr1\t7\t30\t8M2I4M1D3M\t=\t37\t39\tTTAGATAAAGGATACTG\t*",
	"r002\t0\tchr1\t9\t30\t3S6M1P1I4M\t*\t0\t0\tAAAAGATAAGGATA\t*\tNM:i:1\tRG:Z:rg1",
	"r003\t16\tchr2\t9\t0\t5S6M\t*\t0\t0\tGCCTAAGCTAA\tFFFFFFFFFFF\tSA:Z:ref,29,-,6H5M,17,0",
	"r004\t147\tchr1\t37\t30\t9M\t=\t7\t-39\tCAGCGGCAT\t*\tXS:f:1.5",
	"r005\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*",
}

// byteRecords are byteLines' records, field for field.
var byteRecords = []Record{
	{QName: "r001", Flag: 99, RName: "chr1", Pos: 7, MapQ: 30,
		Cigar: Cigar{NewCigarOp(CigarMatch, 8), NewCigarOp(CigarInsertion, 2), NewCigarOp(CigarMatch, 4),
			NewCigarOp(CigarDeletion, 1), NewCigarOp(CigarMatch, 3)},
		RNext: "=", PNext: 37, TLen: 39, Seq: "TTAGATAAAGGATACTG", Qual: "*"},
	{QName: "r002", RName: "chr1", Pos: 9, MapQ: 30,
		Cigar: Cigar{NewCigarOp(CigarSoftClip, 3), NewCigarOp(CigarMatch, 6), NewCigarOp(CigarPadding, 1),
			NewCigarOp(CigarInsertion, 1), NewCigarOp(CigarMatch, 4)},
		RNext: "*", Seq: "AAAAGATAAGGATA", Qual: "*",
		Tags: []Tag{{Name: [2]byte{'N', 'M'}, Type: 'i', Value: "1"}, {Name: [2]byte{'R', 'G'}, Type: 'Z', Value: "rg1"}}},
	{QName: "r003", Flag: 16, RName: "chr2", Pos: 9,
		Cigar: Cigar{NewCigarOp(CigarSoftClip, 5), NewCigarOp(CigarMatch, 6)},
		RNext: "*", Seq: "GCCTAAGCTAA", Qual: "FFFFFFFFFFF",
		Tags: []Tag{{Name: [2]byte{'S', 'A'}, Type: 'Z', Value: "ref,29,-,6H5M,17,0"}}},
	{QName: "r004", Flag: 147, RName: "chr1", Pos: 37, MapQ: 30,
		Cigar: Cigar{NewCigarOp(CigarMatch, 9)},
		RNext: "=", PNext: 7, TLen: -39, Seq: "CAGCGGCAT", Qual: "*",
		Tags: []Tag{{Name: [2]byte{'X', 'S'}, Type: 'f', Value: "1.5"}}},
	{QName: "r005", Flag: 4, RName: "*", RNext: "*", Seq: "*", Qual: "*"},
}

// parseFresh parses line from a private copy into a zero Record.
func parseFresh(line string) (Record, error) {
	var r Record
	err := ParseRecordIntoBytes(&r, []byte(line))
	return r, err
}

func TestParseRecordBytesMatchesString(t *testing.T) {
	for i, line := range byteLines {
		for _, parse := range []func(string) (Record, error){parseFresh, ParseRecord} {
			got, err := parse(line)
			if err != nil {
				t.Fatalf("parse(%q): %v", line, err)
			}
			if want := byteRecords[i]; !reflect.DeepEqual(got, want) {
				t.Errorf("parse(%q) = %+v, want %+v", line, got, want)
			}
		}
	}
}

// TestParseRecordBytesParityTable pins the parser's accept/reject
// decisions and exact error text over the edge shapes of the kern-backed
// fields: signed and boundary TLEN values, bounded-field overflow at and
// past each maximum, leading zeros long enough to cross an 8-digit word,
// trailing tabs (the cursor never yields a final empty field) and empty
// mid-fields. An accepted line's record is the base record with the
// row's field set.
func TestParseRecordBytesParityTable(t *testing.T) {
	const bad = "sam: invalid alignment record: "
	base := Record{QName: "q", RName: "chr1", Pos: 7, MapQ: 30, RNext: "*", Seq: "*", Qual: "*"}
	with := func(set func(*Record)) *Record {
		r := base
		set(&r)
		return &r
	}
	rows := []struct {
		line string
		want *Record // nil: the line is rejected with err
		err  string
	}{
		// TLEN through strconv.ParseInt's full accept set.
		{"q\t0\tchr1\t7\t30\t*\t*\t0\t-39\t*\t*", with(func(r *Record) { r.TLen = -39 }), ""},
		{"q\t0\tchr1\t7\t30\t*\t*\t0\t+39\t*\t*", with(func(r *Record) { r.TLen = 39 }), ""},
		{"q\t0\tchr1\t7\t30\t*\t*\t0\t-2147483648\t*\t*", with(func(r *Record) { r.TLen = -2147483648 }), ""},
		{"q\t0\tchr1\t7\t30\t*\t*\t0\t2147483647\t*\t*", with(func(r *Record) { r.TLen = 2147483647 }), ""},
		{"q\t0\tchr1\t7\t30\t*\t*\t0\t-2147483649\t*\t*", nil, bad + `TLEN "-2147483649"`},
		{"q\t0\tchr1\t7\t30\t*\t*\t0\t2147483648\t*\t*", nil, bad + `TLEN "2147483648"`},
		{"q\t0\tchr1\t7\t30\t*\t*\t0\t+\t*\t*", nil, bad + `TLEN "+"`},
		{"q\t0\tchr1\t7\t30\t*\t*\t0\t-\t*\t*", nil, bad + `TLEN "-"`},
		{"q\t0\tchr1\t7\t30\t*\t*\t0\t--1\t*\t*", nil, bad + `TLEN "--1"`},
		{"q\t0\tchr1\t7\t30\t*\t*\t0\t1_0\t*\t*", nil, bad + `TLEN "1_0"`},
		// Bounded fields at max and max+1.
		{"q\t65535\tchr1\t7\t30\t*\t*\t0\t0\t*\t*", with(func(r *Record) { r.Flag = 65535 }), ""},
		{"q\t65536\tchr1\t7\t30\t*\t*\t0\t0\t*\t*", nil, bad + `FLAG "65536"`},
		{"q\t0\tchr1\t2147483647\t30\t*\t*\t0\t0\t*\t*", with(func(r *Record) { r.Pos = 2147483647 }), ""},
		{"q\t0\tchr1\t2147483648\t30\t*\t*\t0\t0\t*\t*", nil, bad + `POS "2147483648"`},
		{"q\t0\tchr1\t7\t255\t*\t*\t0\t0\t*\t*", with(func(r *Record) { r.MapQ = 255 }), ""},
		{"q\t0\tchr1\t7\t256\t*\t*\t0\t0\t*\t*", nil, bad + `MAPQ "256"`},
		// Leading zeros crossing the 8-digit word boundary.
		{"q\t0\tchr1\t000000000000007\t30\t*\t*\t0\t0\t*\t*", &base, ""},
		{"q\t000000000000000000000000000001\tchr1\t7\t30\t*\t*\t0\t0\t*\t*", with(func(r *Record) { r.Flag = 1 }), ""},
		// Digit-field junk at word and tail positions.
		{"q\t0\tchr1\t12345678x\t30\t*\t*\t0\t0\t*\t*", nil, bad + `POS "12345678x"`},
		{"q\t0\tchr1\t1234x678\t30\t*\t*\t0\t0\t*\t*", nil, bad + `POS "1234x678"`},
		// Trailing-tab and empty-field shapes.
		{"q\t0\tchr1\t7\t30\t*\t*\t0\t0\t*\t*\t", &base, ""},
		{"q\t0\tchr1\t7\t30\t*\t*\t0\t0\t*\t", nil, bad + "missing QUAL"},
		{"q\t0\t\t7\t30\t*\t*\t0\t0\t*\t*", nil, bad + "missing RNAME"},
		{"\tq\t0\tchr1\t7\t30\t*\t*\t0\t0\t*\t*", nil, bad + "empty QNAME"},
		// SEQ/QUAL mismatch.
		{"q\t0\tchr1\t7\t30\t*\t*\t0\t0\tACGT\tIII", nil, bad + "SEQ/QUAL length mismatch (4 vs 3)"},
	}
	for _, row := range rows {
		got, err := parseFresh(row.line)
		if row.want == nil {
			if err == nil || err.Error() != row.err {
				t.Errorf("parse(%q) err = %v, want %q", row.line, err, row.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("parse(%q): %v", row.line, err)
		} else if !reflect.DeepEqual(got, *row.want) {
			t.Errorf("parse(%q) = %+v, want %+v", row.line, got, *row.want)
		}
	}
}

func TestParseRecordBytesErrorsMatchString(t *testing.T) {
	for line, want := range map[string]string{
		"":                    "sam: invalid alignment record: empty QNAME",
		"only\tthree\tfields": `sam: invalid alignment record: FLAG "three"`,
		"q\tNOTANUMBER\tchr1\t7\t30\t*\t*\t0\t0\t*\t*": `sam: invalid alignment record: FLAG "NOTANUMBER"`,
		"q\t0\tchr1\tx\t30\t*\t*\t0\t0\t*\t*":          `sam: invalid alignment record: POS "x"`,
		"q\t0\tchr1\t7\t30\t8Q\t*\t0\t0\t*\t*":         `sam: invalid CIGAR: "8Q" at offset 1`,
		"q\t0\tchr1\t7\t30\t*\t*\t0\t0\t*\t*\tbadtag":  `sam: invalid optional tag: "badtag"`,
	} {
		for _, parse := range []func(string) (Record, error){parseFresh, ParseRecord} {
			if _, err := parse(line); err == nil || err.Error() != want {
				t.Errorf("parse(%q) err = %v, want %q", line, err, want)
			}
		}
	}
}

func TestParseRecordIntoBytesReusesRecord(t *testing.T) {
	var r Record
	for i := 0; i < 3; i++ {
		for _, line := range byteLines {
			if err := ParseRecordIntoBytes(&r, []byte(line)); err != nil {
				t.Fatalf("pass %d: ParseRecordIntoBytes(%q): %v", i, line, err)
			}
			if got := string(r.AppendTo(nil)); got != line {
				t.Errorf("pass %d: reused record renders %q, want %q", i, got, line)
			}
		}
	}
}

func TestAppendToMatchesString(t *testing.T) {
	for _, line := range byteLines {
		rec, err := ParseRecord(line)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(rec.AppendTo(nil)); got != line || rec.String() != line {
			t.Errorf("AppendTo = %q, String = %q, want %q", got, rec.String(), line)
		}
		// Appending to a non-empty prefix must leave the prefix alone.
		withPrefix := rec.AppendTo([]byte("prefix:"))
		if string(withPrefix) != "prefix:"+line {
			t.Errorf("AppendTo with prefix = %q", withPrefix)
		}
	}
}

func TestParseCigarIntoReusesCapacity(t *testing.T) {
	dst := make(Cigar, 0, 16)
	c, err := ParseCigarInto(dst, "8M2I4M1D3M")
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 5 {
		t.Fatalf("len = %d, want 5", len(c))
	}
	if &c[0] != &dst[:1][0] {
		t.Error("ParseCigarInto reallocated despite sufficient capacity")
	}
	// A second parse over the same backing array overwrites it.
	c2, err := ParseCigarInto(c, "4M")
	if err != nil {
		t.Fatal(err)
	}
	if len(c2) != 1 || &c2[0] != &dst[:1][0] {
		t.Error("second ParseCigarInto did not reuse the backing array")
	}
}

func TestParseCigarIntoMatchesParseCigar(t *testing.T) {
	for _, s := range []string{"*", "", "8M2I4M1D3M", "100S1D2N3H", "bad", "4", "4M3"} {
		want, werr := ParseCigar(s)
		got, gerr := ParseCigarInto(nil, s)
		if (werr == nil) != (gerr == nil) {
			t.Errorf("ParseCigarInto(%q) err = %v, ParseCigar err = %v", s, gerr, werr)
			continue
		}
		if werr != nil {
			if werr.Error() != gerr.Error() {
				t.Errorf("error wording differs for %q: %v vs %v", s, gerr, werr)
			}
			continue
		}
		if len(got) != len(want) {
			t.Errorf("ParseCigarInto(%q) = %v, want %v", s, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("ParseCigarInto(%q)[%d] = %v, want %v", s, i, got[i], want[i])
			}
		}
	}
}
