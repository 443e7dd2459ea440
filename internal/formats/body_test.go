package formats

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"parseq/internal/bam"
	"parseq/internal/sam"
	"parseq/internal/simdata"
)

// bodyHeader is testHeader plus a reference named "*", on which
// sam.Record.Unmapped calls a record unmapped whatever its flag.
func bodyHeader() *sam.Header {
	h := testHeader()
	h.AddReference("*", 1000)
	return h
}

// bodyFormats are the formats that render bodies (BodyEncoder).
var bodyFormats = []string{"sam", "bed", "bedgraph", "fasta", "fastq"}

// raw is a hand-built record body, for layouts a SAM line cannot
// express: every integer tag width, absent qualities, empty names,
// out-of-range fields.
type raw struct {
	ref, pos, nextRef, nextPos, tlen int32
	mapq                             uint8
	flag                             sam.Flag
	name                             string
	cigar                            []sam.CigarOp
	seq                              int  // bases; the packed codes cycle through the alphabet
	noQual                           bool // the 0xff marker of absent qualities
	aux                              []byte
}

func (r raw) body() []byte {
	le32 := func(b []byte, v int32) []byte { return binary.LittleEndian.AppendUint32(b, uint32(v)) }
	b := le32(le32(nil, r.ref), r.pos)
	b = append(b, byte(len(r.name)+1), r.mapq, 0, 0)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r.cigar)))
	b = binary.LittleEndian.AppendUint16(b, uint16(r.flag))
	b = le32(le32(le32(le32(b, int32(r.seq)), r.nextRef), r.nextPos), r.tlen)
	b = append(append(b, r.name...), 0)
	for _, op := range r.cigar {
		b = binary.LittleEndian.AppendUint32(b, uint32(op))
	}
	for i := 0; i < (r.seq+1)/2; i++ {
		b = append(b, byte(i*37+5))
	}
	for i := 0; i < r.seq; i++ {
		q := byte(i % 41)
		if r.noQual {
			q = 0xff
		}
		b = append(b, q)
	}
	return append(b, r.aux...)
}

// tag builds one encoded tag.
func tag(name string, typ byte, v ...byte) []byte {
	return append([]byte{name[0], name[1], typ}, v...)
}

func le(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }

// array builds a B tag of subtype sub holding the encoded elements.
func array(name string, sub byte, count uint32, els ...byte) []byte {
	return tag(name, 'B', append(append([]byte{sub}, le(count)...), els...)...)
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

var (
	allTags = cat(
		tag("XA", 'A', 'x'),
		tag("Xc", 'c', 0x80), tag("XC", 'C', 0xff),
		tag("Xs", 's', 0x00, 0x80), tag("XS", 'S', 0xff, 0xff),
		tag("Xi", 'i', le(uint32(0xfffffffb))...), tag("XI", 'I', le(4000000000)...),
		tag("Xf", 'f', le(math.Float32bits(-3.5))...), tag("Xg", 'f', le(math.Float32bits(1e-10))...),
		tag("RG", 'Z', []byte("grp1\x00")...), tag("XZ", 'Z', 0), tag("XH", 'H', []byte("00FF\x00")...),
	)
	arrays = cat(
		array("Bc", 'c', 3, 0x01, 0xfe, 0x7f), array("BC", 'C', 2, 0x00, 0xff),
		array("Bs", 's', 2, 0x00, 0x80, 0x01, 0x00), array("BS", 'S', 1, 0xff, 0xff),
		array("Bi", 'i', 1, le(uint32(0x80000000))...), array("BI", 'I', 1, le(0xffffffff)...),
		array("Bf", 'f', 2, cat(le(math.Float32bits(0.5)), le(math.Float32bits(float32(math.Inf(-1)))))...),
		array("B0", 'i', 0),
	)
	mapped = raw{ref: 0, pos: 99, nextRef: 0, nextPos: 199, tlen: 150, mapq: 60, name: "r1",
		cigar: []sam.CigarOp{sam.NewCigarOp(sam.CigarSoftClip, 2), sam.NewCigarOp(sam.CigarMatch, 8),
			sam.NewCigarOp(sam.CigarInsertion, 1), sam.NewCigarOp(sam.CigarDeletion, 3),
			sam.NewCigarOp(sam.CigarSkipped, 4), sam.NewCigarOp(sam.CigarHardClip, 5)},
		seq: 11}
)

// bodySeeds are the hand-made bodies of the differential check: valid
// layouts along every rule the text formats branch on, then bodies
// both paths must refuse.
func bodySeeds() [][]byte {
	with := func(f func(*raw)) []byte { r := mapped; f(&r); return r.body() }
	seeds := [][]byte{
		mapped.body(),
		with(func(r *raw) { r.aux = allTags }),
		with(func(r *raw) { r.aux = arrays }),
		with(func(r *raw) { r.name = "" }),
		with(func(r *raw) { r.seq = 0 }),
		with(func(r *raw) { r.seq = 1 }),
		with(func(r *raw) { r.seq = 33; r.noQual = true }),
		with(func(r *raw) { r.flag = sam.FlagUnmapped }),
		with(func(r *raw) { r.flag = sam.FlagReverse; r.seq = 17 }),
		with(func(r *raw) { r.flag = sam.FlagReverse; r.noQual = true }),
		with(func(r *raw) { r.flag = sam.FlagSecondary }),
		with(func(r *raw) { r.flag = sam.FlagSupplementary }),
		with(func(r *raw) { r.flag = sam.FlagPaired | sam.FlagRead1 }),
		with(func(r *raw) { r.flag = sam.FlagPaired | sam.FlagRead2 | sam.FlagReverse }),
		with(func(r *raw) { r.flag = sam.FlagRead1 }), // a mate bit without the pair bit
		with(func(r *raw) { r.nextRef = 1 }),
		with(func(r *raw) { r.nextRef, r.nextPos = -1, -1 }),
		with(func(r *raw) { r.ref, r.pos = -1, -1 }), // unplaced, flag clear
		with(func(r *raw) { r.ref, r.nextRef = -1, -1 }),
		with(func(r *raw) { r.ref, r.nextRef = 2, 2 }), // on the reference named "*"
		with(func(r *raw) { r.pos = -1 }),
		with(func(r *raw) { r.pos = math.MaxInt32 - 1 }),
		with(func(r *raw) { r.tlen = -150 }),
		with(func(r *raw) { r.cigar = nil }),
		with(func(r *raw) { // no reference consumed: END is POS
			r.cigar = []sam.CigarOp{sam.NewCigarOp(sam.CigarSoftClip, 5), sam.NewCigarOp(sam.CigarInsertion, 6)}
		}),
		with(func(r *raw) { r.cigar = []sam.CigarOp{sam.CigarOp(7<<4 | 12)} }), // an op type past X
		// Refused: short, malformed tags, out-of-range fields.
		mapped.body()[:20],
		mapped.body()[:40],
		with(func(r *raw) { r.aux = []byte("XA") }),
		with(func(r *raw) { r.aux = tag("Xi", 'i', 1, 2) }),
		with(func(r *raw) { r.aux = tag("XA", 'A') }),
		with(func(r *raw) { r.aux = tag("RG", 'Z', []byte("grp1")...) }),
		with(func(r *raw) { r.aux = tag("XH", 'H') }),
		with(func(r *raw) { r.aux = tag("XQ", 'Q', 1) }),
		with(func(r *raw) { r.aux = array("Bx", 'x', 1, 0) }),
		with(func(r *raw) { r.aux = array("Bi", 'i', 5, 1, 2) }),
		with(func(r *raw) { r.aux = tag("Bi", 'B', 'i', 1) }),
		with(func(r *raw) { r.ref = 7 }),
		with(func(r *raw) { r.pos = -16 }),
		with(func(r *raw) { r.nextRef = 9 }),
		with(func(r *raw) { r.nextPos = math.MaxInt32 }),
	}
	unterminated := mapped.body()
	unterminated[32+len(mapped.name)] = 'x' // the name's NUL
	return append(seeds, unterminated)
}

// checkAppendBody is the differential oracle: for every body format,
// AppendBody must append exactly what Encode appends for the decoded
// record, and fail exactly when the decode fails.
func checkAppendBody(t *testing.T, h *sam.Header, body []byte) {
	t.Helper()
	var rec sam.Record
	derr := bam.DecodeRecord(body, &rec, h)
	prefix := []byte("kept\n")
	for _, name := range bodyFormats {
		enc, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		be, ok := enc.(BodyEncoder)
		if !ok {
			t.Fatalf("%s: no BodyEncoder", name)
		}
		got, err := be.AppendBody(append([]byte(nil), prefix...), body, h)
		if (err != nil) != (derr != nil) {
			t.Fatalf("%s: AppendBody error %v, DecodeRecord error %v, body %x", name, err, derr, body)
		}
		if err != nil {
			if !errors.Is(err, bam.ErrInvalidRecord) {
				t.Fatalf("%s: AppendBody error %v does not wrap bam.ErrInvalidRecord", name, err)
			}
			continue
		}
		want, err := enc.Encode(append([]byte(nil), prefix...), &rec, h)
		if err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: body %x\nAppendBody %q\n    Encode %q", name, body, got, want)
		}
	}
}

// FuzzAppendBody checks AppendBody against DecodeRecord + Encode for
// the five body formats on every input: the same bytes, or both refuse.
// `make fuzz-body` runs it.
func FuzzAppendBody(f *testing.F) {
	for _, b := range bodySeeds() {
		f.Add(b)
	}
	d := simdata.Generate(simdata.DefaultConfig(20))
	for i := range d.Records {
		b, err := bam.EncodeRecord(nil, &d.Records[i], d.Header)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b[4:])
	}
	h := bodyHeader()
	f.Fuzz(func(t *testing.T, body []byte) { checkAppendBody(t, h, body) })
}

// TestAppendBodyText pins the body path's text for the cases the
// differential check cannot tell apart from a shared mistake: every
// integer width renders as i, floats as the shortest float32 form, and
// the name, SEQ and QUAL markers of absent fields.
func TestAppendBodyText(t *testing.T) {
	h := bodyHeader()
	with := func(f func(*raw)) []byte { r := mapped; f(&r); return r.body() }
	for _, c := range []struct {
		format string
		body   []byte
		want   string
	}{
		{"sam", with(func(r *raw) { r.seq = 3; r.aux = allTags }),
			"r1\t0\tchr1\t100\t60\t2S8M1I3D4N5H\t=\t200\t150\t=RC\t!\"#" +
				"\tXA:A:x\tXc:i:-128\tXC:i:255\tXs:i:-32768\tXS:i:65535\tXi:i:-5\tXI:i:4000000000" +
				"\tXf:f:-3.5\tXg:f:1e-10\tRG:Z:grp1\tXZ:Z:\tXH:H:00FF\n"},
		{"sam", with(func(r *raw) { r.seq = 0; r.aux = arrays }),
			"r1\t0\tchr1\t100\t60\t2S8M1I3D4N5H\t=\t200\t150\t*\t*" +
				"\tBc:B:c,1,-2,127\tBC:B:C,0,255\tBs:B:s,-32768,1\tBS:B:S,65535" +
				"\tBi:B:i,-2147483648\tBI:B:I,4294967295\tBf:B:f,0.5,-Inf\tB0:B:i\n"},
		{"sam", with(func(r *raw) { r.name = ""; r.seq = 2; r.noQual = true; r.nextRef = 1 }),
			"*\t0\tchr1\t100\t60\t2S8M1I3D4N5H\tchr2\t200\t150\t=R\t*\n"},
		{"bed", with(func(r *raw) { r.flag = sam.FlagReverse }), "chr1\t99\t114\tr1\t60\t-\n"},
		{"bed", with(func(r *raw) { r.cigar = nil }), "chr1\t99\t100\tr1\t60\t+\n"},
		{"bed", with(func(r *raw) { r.pos = -1 }), ""},
		{"bedgraph", mapped.body(), "chr1\t99\t114\t1\n"},
		{"bedgraph", with(func(r *raw) { r.ref = -1 }), ""},
		{"bed", with(func(r *raw) { r.ref = 2 }), ""},
		{"fasta", with(func(r *raw) { r.seq = 3; r.flag = sam.FlagPaired | sam.FlagRead2 | sam.FlagReverse }), ">r1/2\nGYN\n"},
		{"fastq", with(func(r *raw) { r.seq = 3; r.flag = sam.FlagReverse }), "@r1\nGYN\n+\n#\"!\n"},
		{"fastq", with(func(r *raw) { r.seq = 3; r.noQual = true }), "@r1\n=RC\n+\n!!!\n"},
		{"fastq", with(func(r *raw) { r.flag = sam.FlagSupplementary }), ""},
	} {
		enc, _ := New(c.format)
		got, err := enc.(BodyEncoder).AppendBody(nil, c.body, h)
		if err != nil || string(got) != c.want {
			t.Errorf("%s: got %q, %v\nwant %q", c.format, got, err, c.want)
		}
		checkAppendBody(t, h, c.body)
	}
}

// TestRecordPathFormats: JSON and YAML have no body form, so the
// converter decodes records for them; the five text formats of the
// body path all have one.
func TestRecordPathFormats(t *testing.T) {
	for _, name := range Names() {
		enc, _ := New(name)
		_, body := enc.(BodyEncoder)
		want := name != "json" && name != "yaml"
		if name == "testenc" { // registered by TestRegister
			want = false
		}
		if body != want {
			t.Errorf("%s: BodyEncoder %v, want %v", name, body, want)
		}
	}
}
