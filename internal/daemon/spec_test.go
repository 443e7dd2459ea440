package daemon

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"parseq/internal/engine"
)

func TestDecodeSpecValid(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want func(t *testing.T, s JobSpec)
	}{
		{"empty object defaults to convert", `{}`, func(t *testing.T, s JobSpec) {
			if s.Op != OpConvert {
				t.Fatalf("op = %q, want convert", s.Op)
			}
			if s.InputBase() != "input.sam" {
				t.Fatalf("inputName = %q", s.InputBase())
			}
		}},
		{"full convert surface", `{"op":"convert","converter":"sam","format":"bed","ranks":4,"codec_workers":2,"parse_workers":3,"input_name":"x.sam"}`,
			func(t *testing.T, s JobSpec) {
				k, err := s.ConverterKind()
				if err != nil || k != "sam" {
					t.Fatalf("kind = %q, %v", k, err)
				}
			}},
		{"hist defaults bin size", `{"op":"hist","rname":"chr1","input_path":"/data/in.sam"}`,
			func(t *testing.T, s JobSpec) {
				if s.BinSize != 100 {
					t.Fatalf("bin = %d, want 100", s.BinSize)
				}
			}},
		{"peaks defaults sims", `{"op":"peaks","rname":"chr1","candidates":[0.5,1.0],"input_name":"in.bam"}`,
			func(t *testing.T, s JobSpec) {
				if s.Sims != 8 {
					t.Fatalf("sims = %d, want 8", s.Sims)
				}
			}},
		{"auto converter by extension", `{"input_name":"reads.bamx"}`,
			func(t *testing.T, s JobSpec) {
				k, err := s.ConverterKind()
				if err != nil || k != "bamx" {
					t.Fatalf("kind = %q, %v", k, err)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := engine.DecodeSpec([]byte(tc.in))
			if err != nil {
				t.Fatal(err)
			}
			tc.want(t, s)
		})
	}
}

func TestDecodeSpecInvalid(t *testing.T) {
	cases := []struct {
		name, in, errSub string
	}{
		{"empty", ``, "empty"},
		{"not json", `{`, "decoding"},
		{"trailing data", `{} {}`, "trailing"},
		{"unknown field", `{"opp":"convert"}`, "unknown field"},
		{"unknown op", `{"op":"transmogrify"}`, "unknown op"},
		{"unknown converter", `{"converter":"xam"}`, "unknown converter"},
		{"unknown format", `{"op":"convert","format":"nope"}`, "unknown format"},
		{"negative ranks", `{"ranks":-1}`, "ranks"},
		{"huge ranks", `{"ranks":9999}`, "ranks"},
		{"huge sims", `{"op":"peaks","rname":"c","candidates":[1],"sims":99999}`, "sims"},
		{"negative bin", `{"op":"hist","rname":"c","bin":-5}`, "bin"},
		{"hist without rname", `{"op":"hist"}`, "rname"},
		{"peaks without candidates", `{"op":"peaks","rname":"c"}`, "candidates"},
		{"both inputs", `{"input_path":"/a/b.sam","input_name":"c.sam"}`, "mutually exclusive"},
		{"path-y input name", `{"input_name":"../evil.sam"}`, "bare filename"},
		{"bad region", `{"region":"chr1:9-1"}`, "region"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := engine.DecodeSpec([]byte(tc.in))
			if err == nil {
				t.Fatalf("engine.DecodeSpec(%q) accepted", tc.in)
			}
			if !strings.Contains(err.Error(), tc.errSub) {
				t.Fatalf("error %q does not mention %q", err, tc.errSub)
			}
		})
	}
}

// JSON cannot spell NaN, but programmatic callers can; Validate must
// still refuse it — NaN breaks the FDR sweep's comparisons.
func TestValidateNaNCandidate(t *testing.T) {
	s := JobSpec{Op: OpPeaks, RName: "chr1", Candidates: []float64{math.NaN()}}
	if err := s.Validate(); err == nil {
		t.Fatal("NaN candidate accepted")
	}
}

func TestDecodeSpecLengthCap(t *testing.T) {
	big := `{"input_name":"` + strings.Repeat("a", engine.MaxSpecLen) + `.sam"}`
	if _, err := engine.DecodeSpec([]byte(big)); err == nil {
		t.Fatal("oversized spec accepted")
	}
}

// FuzzJobSpec pins the decode contract: no panic on any input, and any
// accepted spec re-encodes and re-decodes to an equally valid spec
// (validation is a fixed point, so a client may round-trip specs).
func FuzzJobSpec(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"op":"convert","format":"bed","ranks":2}`,
		`{"op":"hist","rname":"chr1","bin":50,"input_path":"/x.sam"}`,
		`{"op":"peaks","rname":"chr1","candidates":[0.5,1,2],"sims":4,"seed":7,"input_name":"a.bam"}`,
		`{"op":"flagstat","shards":16,"workers":2,"input_name":"a.bamx"}`,
		`{"converter":"pamx","input_name":"a.pamx"}`,
		`{"region":"chr1:100-200","input_name":"a.bamx"}`,
		`{"ranks":-1}`,
		`{"unknown":"field"}`,
		`[1,2,3]`,
		`"convert"`,
		"\x00\xff",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := engine.DecodeSpec(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		again, err := engine.DecodeSpec(out)
		if err != nil {
			t.Fatalf("re-encoded spec %s rejected: %v", out, err)
		}
		out2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(out2) {
			t.Fatalf("validation not a fixed point: %s vs %s", out, out2)
		}
	})
}
