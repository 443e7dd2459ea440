package conv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"parseq/internal/bam"
	"parseq/internal/bamx"
	"parseq/internal/formats"
	"parseq/internal/sam"
	"parseq/internal/shard"
	"parseq/internal/simdata"
)

// matrixFormat is a format added through formats.Register. It has
// Encode alone, so the binary sources reach it through the record path;
// it prints every field, tags included, so a decode difference shows.
const matrixFormat = "matrixtsv"

type matrixEncoder struct{}

func (matrixEncoder) Name() string              { return matrixFormat }
func (matrixEncoder) Extension() string         { return ".tsv" }
func (matrixEncoder) Header(*sam.Header) []byte { return nil }
func (matrixEncoder) Encode(dst []byte, rec *sam.Record, _ *sam.Header) ([]byte, error) {
	dst = append(dst, rec.QName...)
	for _, t := range rec.Tags {
		dst = append(append(dst, ' '), t.String()...)
	}
	return append(append(append(dst, ' '), rec.Cigar.String()...), '\n'), nil
}

var registerMatrixFormat = sync.OnceValue(func() error {
	return formats.Register(matrixFormat, func() formats.Encoder { return matrixEncoder{} })
})

// referenceText is the single-threaded conversion of recs, plus the
// number of records the format emits anything for.
func referenceText(t *testing.T, recs []sam.Record, h *sam.Header, format string) (string, int64) {
	t.Helper()
	enc, err := formats.New(format)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), enc.Header(h)...)
	var emitted int64
	for i := range recs {
		n := len(out)
		if out, err = enc.Encode(out, &recs[i], h); err != nil {
			t.Fatal(err)
		}
		if len(out) != n {
			emitted++
		}
	}
	return string(out), emitted
}

// TestSourceSinkMatrix pins the runtime's seam: every source reaches
// every target, text and BAM shards alike, the binary sources' body
// path (the five formats with AppendBody) and record path (JSON, a
// format added through formats.Register, BAM shards) alike, at one and four parse
// workers and at one and several ranks, with the same bytes as the
// single-threaded reference and the same Stats — including BytesIn,
// which for the fixed-stride sources is records × stride on the full and
// the region path alike. The provider source is exercised over every container a
// provider reads; a shuffled BAMX pins the order contract — whole-file
// output is file order, region output BAIX (position) order.
func TestSourceSinkMatrix(t *testing.T) {
	samPath, bamPath, d := writeDataset(t, 500)
	dir := t.TempDir()
	bamxPath := filepath.Join(dir, "d.bamx")
	bamzPath := filepath.Join(dir, "d.bamz")
	baixPath := filepath.Join(dir, "d.baix")
	if _, err := PreprocessBAMFile(bamPath, bamxPath, baixPath, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := CompressBAMXFile(bamxPath, bamzPath, 64); err != nil {
		t.Fatal(err)
	}
	// Small groups, so the region cuts inside one.
	pamxPath := filepath.Join(dir, "d.pamx")
	if _, err := shard.Rewrite(bamPath, pamxPath, shard.WithGroupCaps(0, 60)); err != nil {
		t.Fatal(err)
	}
	// The same BAM beside a .bai sidecar; in.bam has none, so its
	// provider reads it as one stream shard.
	baiBAM := filepath.Join(dir, "d.bam")
	raw, err := os.ReadFile(bamPath)
	if err != nil {
		t.Fatal(err)
	}
	var bai bytes.Buffer
	if err := bam.WriteIndexFile(bytes.NewReader(raw), &bai); err != nil {
		t.Fatal(err)
	}
	for path, data := range map[string][]byte{baiBAM: raw, baiBAM + ".bai": bai.Bytes()} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	shuffled := append([]sam.Record(nil), d.Records...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	shufPath := filepath.Join(dir, "shuf.bamx")
	shuf, err := shard.Create(shufPath, d.Header)
	if err != nil {
		t.Fatal(err)
	}
	var enc []byte
	for i := range shuffled {
		if enc, err = bam.EncodeRecord(enc[:0], &shuffled[i], d.Header); err != nil {
			t.Fatal(err)
		}
		if err := shuf.WriteBody(enc[4:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := shuf.Close(); err != nil {
		t.Fatal(err)
	}

	// Partial conversion selects the records starting within the region,
	// in BAIX order: by position, file order among equals.
	region := &Region{RName: "chr1", Beg: 1, End: 100000}
	within := func(recs []sam.Record) (in []sam.Record) {
		for _, r := range recs {
			if !r.Unmapped() && r.RName == region.RName && r.Pos >= region.Beg && r.Pos <= region.End {
				in = append(in, r)
			}
		}
		sort.SliceStable(in, func(i, j int) bool { return in[i].Pos < in[j].Pos })
		return in
	}
	inRegion := within(d.Records)
	if len(inRegion) == 0 || len(inRegion) == len(d.Records) {
		t.Fatalf("region selects %d of %d records; pick one that splits the dataset", len(inRegion), len(d.Records))
	}

	size := func(path string) int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	sf, err := os.Open(samPath)
	if err != nil {
		t.Fatal(err)
	}
	_, dataStart, err := sam.ScanHeader(sf)
	sf.Close()
	if err != nil {
		t.Fatal(err)
	}
	xf, err := os.Open(bamxPath)
	if err != nil {
		t.Fatal(err)
	}
	defer xf.Close()
	x, err := bamx.Open(xf, size(bamxPath))
	if err != nil {
		t.Fatal(err)
	}
	stride := int64(x.Stride())

	provider := func(open func() shard.Provider) func(Options) (*Result, error) {
		return func(o Options) (*Result, error) { return convertProvider(open(), o) }
	}
	fromPAMX := provider(func() shard.Provider { return shard.NewPAMXProvider(pamxPath) })
	fromBAI := provider(func() shard.Provider { return shard.NewBAMProvider(baiBAM) })
	fromBAM := provider(func() shard.Provider { return shard.NewBAMProvider(bamPath) })
	fromShuffled := func(o Options) (*Result, error) { return ConvertBAMX(shufPath, "", o) }

	sources := []struct {
		name    string
		recs    []sam.Record
		bytesIn int64 // -1: the provider's compressed-byte estimate, not pinned
		region  *Region
		convert func(Options) (*Result, error)
	}{
		{"sam", d.Records, size(samPath) - dataStart, nil,
			func(o Options) (*Result, error) { return ConvertSAM(samPath, o) }},
		{"bam-stream", d.Records, size(bamPath), nil,
			func(o Options) (*Result, error) { return ConvertBAMSequential(bamPath, o) }},
		{"bamx", d.Records, stride * int64(len(d.Records)), nil,
			func(o Options) (*Result, error) { return ConvertBAMX(bamxPath, baixPath, o) }},
		{"bamz", d.Records, stride * int64(len(d.Records)), nil,
			func(o Options) (*Result, error) { return ConvertBAMZ(bamzPath, baixPath, o) }},
		{"bamx+region", inRegion, stride * int64(len(inRegion)), region,
			func(o Options) (*Result, error) { return ConvertBAMX(bamxPath, baixPath, o) }},
		{"bamz+region", inRegion, stride * int64(len(inRegion)), region,
			func(o Options) (*Result, error) { return ConvertBAMZ(bamzPath, baixPath, o) }},
		{"pamx", d.Records, -1, nil, fromPAMX},
		{"pamx+region", inRegion, -1, region, fromPAMX},
		{"bam+bai", d.Records, -1, nil, fromBAI},
		{"bam+bai+region", inRegion, -1, region, fromBAI},
		{"bam", d.Records, -1, nil, fromBAM},
		{"bam+region", inRegion, -1, region, fromBAM},
		{"bamx-shuffled", shuffled, stride * int64(len(shuffled)), nil, fromShuffled},
		{"bamx-shuffled+region", within(shuffled), stride * int64(len(inRegion)), region, fromShuffled},
	}
	if err := registerMatrixFormat(); err != nil {
		t.Fatal(err)
	}
	for _, src := range sources {
		// The first five take the body path from the binary sources;
		// json, the registered format and bam take the record path.
		for _, format := range []string{"sam", "bed", "bedgraph", "fasta", "fastq", "json", matrixFormat, "bam"} {
			// A BAM target is checked through its records: the merged
			// shards must decode to the SAM text of the input records.
			textFormat := format
			if format == "bam" {
				textFormat = "sam"
			}
			want, emitted := referenceText(t, src.recs, d.Header, textFormat)
			if format == "bam" {
				emitted = int64(len(src.recs))
			}
			for _, workers := range []int{1, 4} {
				for _, cores := range []int{1, 3} {
					name := fmt.Sprintf("%s→%s workers=%d cores=%d", src.name, format, workers, cores)
					res, err := src.convert(Options{
						Format: format, Cores: cores, ParseWorkers: workers, Region: src.region,
						OutDir: t.TempDir(), OutPrefix: "t",
					})
					if err != nil {
						t.Errorf("%s: %v", name, err)
						continue
					}
					var onDisk int64
					for _, f := range res.Files {
						onDisk += size(f)
					}
					got := Stats{Records: res.Stats.Records, Emitted: res.Stats.Emitted,
						BytesIn: res.Stats.BytesIn, BytesOut: res.Stats.BytesOut}
					wantStats := Stats{Records: int64(len(src.recs)), Emitted: emitted,
						BytesIn: src.bytesIn, BytesOut: onDisk}
					if src.bytesIn < 0 {
						wantStats.BytesIn = got.BytesIn
					}
					if got != wantStats {
						t.Errorf("%s: stats = %+v, want %+v", name, got, wantStats)
					}
					text := ""
					if format == "bam" {
						text = mergedShardText(t, res.Files, d.Header)
					} else {
						text = concatFiles(t, res.Files)
					}
					if text != want {
						t.Errorf("%s: output differs from the sequential reference (%d bytes, want %d)",
							name, len(text), len(want))
					}
				}
			}
		}
	}
}

// mergedShardText fuses BAM shards with MergeBAMShards and renders the
// merged file's records as SAM text.
func mergedShardText(t *testing.T, shards []string, h *sam.Header) string {
	t.Helper()
	merged := filepath.Join(t.TempDir(), "merged.bam")
	if _, err := MergeBAMShards(shards, merged, 0); err != nil {
		t.Fatalf("MergeBAMShards: %v", err)
	}
	f, err := os.Open(merged)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := bam.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	text, _ := referenceText(t, recs, h, "sam")
	return text
}

// TestCorruptBodyFailsBothPaths: a BAMX and a BAM that each hold one bad
// body fail conversion on the body path (sam) and the record path (json)
// alike, with an error wrapping bam.ErrInvalidRecord — never a success,
// never a panic.
func TestCorruptBodyFailsBothPaths(t *testing.T) {
	d := simdata.Generate(simdata.DefaultConfig(200))
	h := d.Header
	const bad = 120
	for _, c := range []struct {
		name  string
		spoil func(body []byte) []byte
	}{
		{"a name without its NUL", func(b []byte) []byte { b[32+int(b[8])-1] = 'x'; return b }},
		{"a Z tag without its NUL", func(b []byte) []byte { return append(b, "XZZabc"...) }},
		{"refID past the header", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, uint32(len(h.Refs)+2))
			return b
		}},
	} {
		for _, ext := range []string{".bamx", ".bam"} {
			path := filepath.Join(t.TempDir(), "bad"+ext)
			out, err := shard.Create(path, h)
			if err != nil {
				t.Fatal(err)
			}
			var enc []byte
			for i := range d.Records {
				if enc, err = bam.EncodeRecord(enc[:0], &d.Records[i], h); err != nil {
					t.Fatal(err)
				}
				body := enc[4:]
				if i == bad {
					body = c.spoil(body)
				}
				if err := out.WriteBody(body); err != nil {
					t.Fatalf("%s%s: writing: %v", c.name, ext, err)
				}
			}
			if err := out.Close(); err != nil {
				t.Fatalf("%s%s: closing: %v", c.name, ext, err)
			}
			for _, format := range []string{"sam", "json"} {
				for _, cores := range []int{1, 2} {
					_, err := ConvertIndexed(path, "", Options{Format: format, Cores: cores, OutDir: t.TempDir()})
					if !errors.Is(err, bam.ErrInvalidRecord) {
						t.Errorf("%s in %s → %s, %d ranks: err = %v, want bam.ErrInvalidRecord", c.name, ext, format, cores, err)
					}
				}
			}
		}
	}
}
