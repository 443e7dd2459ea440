package bgzf_test

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"os"
	"os/exec"
	"testing"
	"time"

	"parseq/internal/bam"
	"parseq/internal/bgzf"
	"parseq/internal/formats/pamx"
	"parseq/internal/simdata"
)

// payloadSet is the uncompressed payloads of a run of BGZF members.
type payloadSet struct {
	name     string
	payloads [][]byte
}

// members inflates a BGZF stream block by block.
func members(t testing.TB, stream []byte) [][]byte {
	t.Helper()
	var out [][]byte
	r := bgzf.NewReader(bytes.NewReader(stream))
	for {
		b, _, err := r.NextBlock()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
}

// simPayloads generates a dataset and returns the payloads the product
// hands the encoder for it: the BAM writer's members, then the PAMX
// writer's members column by column (coord, qname, cigar, seq, qual, aux).
func simPayloads(t testing.TB, cfg simdata.Config) (bamSet payloadSet, columns []payloadSet) {
	t.Helper()
	ds := simdata.Generate(cfg)
	var buf bytes.Buffer
	if err := ds.WriteBAM(&buf); err != nil {
		t.Fatal(err)
	}
	bamSet = payloadSet{"bam", members(t, buf.Bytes())}

	buf.Reset()
	pw, err := pamx.NewWriter(&buf, ds.Header, pamx.Options{CodecWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Records {
		if err := pw.Write(&ds.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := pamx.Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for c, name := range []string{"coord", "qname", "cigar", "seq", "qual", "aux"} {
		col := payloadSet{name: name}
		for g := 0; g < f.NumGroups(); g++ {
			e := f.Group(g).Cols[c]
			if e.CLen == 0 {
				continue // an empty column has no blob at all
			}
			col.payloads = append(col.payloads, members(t, buf.Bytes()[e.Off:e.Off+e.CLen])...)
		}
		columns = append(columns, col)
	}
	return bamSet, columns
}

// TestDeflateSimColumns adds the product's own payload shapes to the
// correctness table: a BAM member, and one block of every PAMX column —
// the packed-sequence and read-name columns are the two the TOO_FAR rule
// was tuned on.
func TestDeflateSimColumns(t *testing.T) {
	bamSet, columns := simPayloads(t, simdata.DefaultConfig(3000))
	for _, set := range append(columns, bamSet) {
		if len(set.payloads) == 0 {
			t.Fatalf("no %s payload", set.name)
		}
		p := set.payloads[0]
		member, err := bgzf.DeflateBlock(nil, p)
		if err != nil {
			t.Fatalf("%s: %v", set.name, err)
		}
		bgzf.CheckMember(t, p, member)
		if len(member) >= len(p) {
			t.Errorf("%s: %d bytes wrap to %d", set.name, len(p), len(member))
		}
	}
}

// TestGzipInflatesOurMembers is the offline form of the "samtools reads
// our bytes" guard. zlib is stricter than compress/flate about
// incomplete and degenerate Huffman codes, so when the gzip binary is
// installed it must decode a multi-block BAM written at codec workers 1
// and 4, and the correctness table's members (single literal, no
// distance code, stored, fixed), to the bytes bgzf.Reader returns.
func TestGzipInflatesOurMembers(t *testing.T) {
	gz, err := exec.LookPath("gzip")
	if err != nil {
		t.Skip("no gzip binary on PATH")
	}
	streams := map[string][]byte{}
	ds := simdata.Generate(simdata.DefaultConfig(8000))
	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		w, err := bam.NewWriter(&buf, ds.Header, bam.WithCodecWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := range ds.Records {
			if err := w.Write(&ds.Records[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		streams[fmt.Sprintf("bam, %d codec workers", workers)] = buf.Bytes()
	}
	var table []byte
	for _, c := range bgzf.DeflateCases() {
		member, err := bgzf.DeflateBlock(nil, c.Payload)
		if err != nil {
			t.Fatal(err)
		}
		table = append(table, member...)
	}
	streams["correctness table"] = append(table, bgzf.EOFMarker()...)

	for name, stream := range streams {
		if n := len(members(t, stream)); n < 3 {
			t.Fatalf("%s: %d data blocks, want several", name, n)
		}
		want, err := io.ReadAll(bgzf.NewReader(bytes.NewReader(stream)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cmd := exec.Command(gz, "-dc")
		cmd.Stdin = bytes.NewReader(stream)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		got, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: gzip -dc: %v: %s", name, err, stderr.String())
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: gzip -dc returns %d bytes that differ from bgzf.Reader's %d", name, len(got), len(want))
		}
	}
}

// FuzzDeflateBlock feeds the encoder arbitrary payloads: the member must
// inflate back to the payload under compress/flate and compress/gzip,
// fit MaxBlockSize, and never be larger than a stored block.
func FuzzDeflateBlock(f *testing.F) {
	for _, c := range bgzf.DeflateCases() {
		f.Add(c.Payload)
	}
	bamSet, _ := simPayloads(f, simdata.DefaultConfig(1500))
	for _, p := range bamSet.payloads {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > bgzf.MaxPayload {
			payload = payload[:bgzf.MaxPayload]
		}
		member, err := bgzf.DeflateBlock(nil, payload)
		if err != nil {
			t.Fatal(err)
		}
		bgzf.CheckMember(t, payload, member)
	})
}

// TestDeflateFrontier prints DESIGN.md's codec frontier: compress/flate
// at every level against the in-tree encoder at four chain depths, one
// thread, over the payloads of two generated inputs. It measures, so it
// only runs when asked: `make deflate-frontier`.
func TestDeflateFrontier(t *testing.T) {
	if os.Getenv("BGZF_FRONTIER") == "" {
		t.Skip("set BGZF_FRONTIER=1 to measure")
	}
	type codec struct {
		name string
		run  func(dst, p []byte) []byte
	}
	var codecs []codec
	for _, level := range []int{flate.HuffmanOnly, 1, 2, 3, 4, 5, 6, 7, 8, 9} {
		var out bytes.Buffer
		fw, _ := flate.NewWriter(&out, level)
		name := fmt.Sprintf("flate L%d", level)
		if level == flate.HuffmanOnly {
			name = "flate HuffmanOnly"
		}
		codecs = append(codecs, codec{name, func(_, p []byte) []byte {
			out.Reset()
			fw.Reset(&out)
			fw.Write(p)
			fw.Close()
			return out.Bytes()
		}})
	}
	for _, chain := range []int{32, 64, 96, 128} {
		codecs = append(codecs, codec{fmt.Sprintf("in-tree chain %d", chain), bgzf.NewRawDeflate(chain)})
	}

	seed2 := simdata.DefaultConfig(40000)
	seed2.Seed, seed2.ReadLen = 2, 150
	for _, in := range []struct {
		name string
		cfg  simdata.Config
	}{{"seed 1", simdata.DefaultConfig(40000)}, {"seed 2, 150 bases", seed2}} {
		bamSet, columns := simPayloads(t, in.cfg)
		all := payloadSet{name: "pamx"}
		for _, col := range columns {
			all.payloads = append(all.payloads, col.payloads...)
		}
		fmt.Printf("\n%s: %d BAM payloads, %d PAMX payloads\n", in.name, len(bamSet.payloads), len(all.payloads))
		fmt.Println("| codec | BAM MB/s | BAM ratio | PAMX MB/s | PAMX ratio | coord | qname | cigar | seq | qual | aux |")
		for _, c := range codecs {
			fmt.Printf("| %s ", c.name)
			for _, set := range []payloadSet{bamSet, all} {
				mbs, ratio := measure(c.run, set, 3)
				fmt.Printf("| %.1f | %.4f ", mbs, ratio)
			}
			for _, col := range columns {
				_, ratio := measure(c.run, col, 1)
				fmt.Printf("| %.4f ", ratio)
			}
			fmt.Println("|")
		}
	}
}

// measure compresses every payload of the set, passes times over, and
// returns the fastest pass's MB/s and the compressed/uncompressed ratio.
func measure(run func(dst, p []byte) []byte, set payloadSet, passes int) (mbs, ratio float64) {
	dst := make([]byte, 0, bgzf.MaxBlockSize)
	var in, out int
	best := time.Duration(1 << 62)
	for pass := 0; pass < passes; pass++ {
		in, out = 0, 0
		t0 := time.Now()
		for _, p := range set.payloads {
			in += len(p)
			out += len(run(dst, p))
		}
		best = min(best, time.Since(t0))
	}
	return float64(in) / 1e6 / best.Seconds(), float64(out) / float64(in)
}
